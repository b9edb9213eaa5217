package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Multiplexed transport: N independent logical channels over one Conn.
//
// A Mux carries channel-tagged frames — each underlying message is one
// logical-channel message prefixed with its uvarint channel id — so the
// strictly ordered sub-protocols of this repository can run side by side
// over a single connection: channel 0 carries the session handshake and
// control ops, channels 1..W−1 carry the parallel query scheduler's
// worker traffic (core.Config.Parallel). Per-channel ordering is the
// underlying Conn's ordering filtered by tag; writes from concurrent
// channels are serialized onto the base connection, and one reader
// goroutine fans received frames out to per-channel queues, so a slow
// consumer on one channel never blocks delivery on another.
//
// Both endpoints must agree on whether a connection is muxed (the session
// handshake pins this via the Parallel parameter before any worker
// channel is used); a muxed endpoint against a plain one fails fast with
// a parse error rather than deadlocking.

// MaxMuxChannels bounds the logical channel ids a Mux accepts — far above
// any realistic worker count, and small enough that a corrupted channel
// tag cannot balloon the channel table.
const MaxMuxChannels = 64

// A channel's backlog — frames the reader has delivered and nobody has
// received yet — is bounded, because the peer chooses both the channel id
// and when to send: without a bound, a peer flooding a channel nobody
// reads makes the process buffer 16 MB frames until it dies. Honest
// traffic is request/reply per channel: the worker channels of a W = 4 Run
// never hold more than 2 frames (core's TestMuxBacklogOfHonestRuns records
// the mark and holds the frame bound an order of magnitude above it), and
// the deepest the test suites drive the control channel — a string of
// one-way Expire and Retract ops ahead of a descheduled serving side — is
// 5. The byte bound cannot follow a measurement down: one honest frame may
// be MaxFrameSize, so it is two of those.
const (
	MaxMuxBacklogFrames = 64
	MaxMuxBacklogBytes  = 2 * MaxFrameSize
)

// ErrMuxBacklog reports that the peer sent a channel more than it may
// leave unread (MaxMuxBacklogFrames, MaxMuxBacklogBytes). It fails the
// whole Mux: the reader stops, and every channel returns it once its
// queue has drained. An honest peer can meet it only by streaming more
// one-way frames than the bound at a receiver that does not read; every
// exchange that waits for a reply (a Run, an Append) starts the count
// again.
var ErrMuxBacklog = errors.New("transport: mux channel backlog over its bound")

// AppendMuxFrame encodes one channel-tagged frame: uvarint channel id
// followed by the payload.
func AppendMuxFrame(dst []byte, ch uint32, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(ch))
	return append(dst, payload...)
}

// DecodeMuxFrame splits a channel-tagged frame into channel id and
// payload. The payload aliases b.
func DecodeMuxFrame(b []byte) (ch uint32, payload []byte, err error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("transport: mux frame missing channel tag")
	}
	if v >= MaxMuxChannels {
		return 0, nil, fmt.Errorf("transport: mux channel %d outside [0,%d)", v, MaxMuxChannels)
	}
	return uint32(v), b[n:], nil
}

// Mux multiplexes logical channels over one Conn. Create channels with
// Channel; the same id on both endpoints forms one logical duplex pipe.
type Mux struct {
	base Conn

	// backlogBytes is MaxMuxBacklogBytes, except in the test that lowers
	// it to flood cheaply.
	backlogBytes int

	wmu sync.Mutex // serializes writes from concurrent channels

	mu      sync.Mutex // guards chans, readErr, started, closed
	chans   map[uint32]*muxChan
	readErr error
	started bool
	closed  bool
}

// NewMux wraps base in a channel multiplexer. The Mux owns base's receive
// direction from the first Recv on any channel; do not read base directly
// afterwards. Closing the Mux closes base.
func NewMux(base Conn) *Mux {
	return &Mux{base: base, chans: make(map[uint32]*muxChan), backlogBytes: MaxMuxBacklogBytes}
}

// Channel returns the logical channel with the given id, creating it on
// first use. Channels are cheap; the same id always returns the same Conn.
func (m *Mux) Channel(id uint32) Conn {
	if id >= MaxMuxChannels {
		panic(fmt.Sprintf("transport: mux channel %d outside [0,%d)", id, MaxMuxChannels))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.channelLocked(id)
}

func (m *Mux) channelLocked(id uint32) *muxChan {
	c, ok := m.chans[id]
	if !ok {
		c = &muxChan{m: m, id: id, err: m.readErr}
		c.cond = sync.NewCond(&c.mu)
		m.chans[id] = c
	}
	return c
}

// Close closes the underlying connection; all channels drain their queued
// messages and then return ErrClosed.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return m.base.Close()
}

// startReader launches the demux loop on first use.
func (m *Mux) startReader() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.readLoop()
}

func (m *Mux) readLoop() {
	for {
		b, err := m.base.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		ch, payload, err := DecodeMuxFrame(b)
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		c := m.channelLocked(ch)
		m.mu.Unlock()
		if !c.push(payload) {
			m.fail(fmt.Errorf("%w: channel %d", ErrMuxBacklog, ch))
			return
		}
	}
}

// fail records a terminal read error and wakes every channel with it;
// channels created later inherit it.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	m.readErr = err
	chans := make([]*muxChan, 0, len(m.chans))
	for _, c := range m.chans {
		chans = append(chans, c)
	}
	m.mu.Unlock()
	for _, c := range chans {
		c.failWith(err)
	}
}

// muxChan is one logical channel of a Mux. It satisfies Conn; unlike the
// base connections it is safe to use each channel from its own goroutine
// concurrently with the others.
type muxChan struct {
	m  *Mux
	id uint32

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	queued int   // bytes in queue
	err    error // terminal receive error, delivered after the queue drains
	closed bool

	hiFrames, hiBytes int // deepest backlog so far
}

// push queues one received frame, or reports false when the backlog is at
// its bound.
func (c *muxChan) push(b []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) >= MaxMuxBacklogFrames || c.queued+len(b) > c.m.backlogBytes {
		return false
	}
	c.queue = append(c.queue, b)
	c.queued += len(b)
	c.hiFrames = max(c.hiFrames, len(c.queue))
	c.hiBytes = max(c.hiBytes, c.queued)
	c.cond.Signal()
	return true
}

// BacklogHighWater reports the deepest backlog this channel has held, in
// frames and in bytes.
func (c *muxChan) BacklogHighWater() (frames, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hiFrames, c.hiBytes
}

func (c *muxChan) failWith(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *muxChan) Send(b []byte) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	frame := AppendMuxFrame(make([]byte, 0, len(b)+binary.MaxVarintLen32), c.id, b)
	if err := checkFrameSize(len(frame)); err != nil {
		return fmt.Errorf("transport: mux channel %d: %w", c.id, err)
	}
	c.m.wmu.Lock()
	defer c.m.wmu.Unlock()
	return c.m.base.Send(frame)
}

func (c *muxChan) Recv() ([]byte, error) {
	c.m.startReader()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.queue) > 0 {
			b := c.queue[0]
			c.queue = c.queue[1:]
			c.queued -= len(b)
			return b, nil
		}
		if c.closed {
			return nil, ErrClosed
		}
		if c.err != nil {
			if c.err == ErrClosed {
				return nil, ErrClosed
			}
			return nil, fmt.Errorf("transport: mux channel %d: %w", c.id, c.err)
		}
		c.cond.Wait()
	}
}

// Close marks this channel closed locally. The base connection stays open
// for the Mux's other channels; close the Mux (or the base Conn) to tear
// the whole connection down.
func (c *muxChan) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// SetTag forwards phase tagging to the base connection when it is metered
// (see Meter.SetTag), so muxed protocol traffic keeps its per-phase byte
// attribution. With concurrent worker channels the tag is a best-effort
// label — counts stay exact, attribution of simultaneous phases blurs.
func (c *muxChan) SetTag(tag string) string {
	if t, ok := c.m.base.(interface{ SetTag(string) string }); ok {
		return t.SetTag(tag)
	}
	return ""
}

var _ Conn = (*muxChan)(nil)
