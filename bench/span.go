package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// A span is one Send or Recv call on one party's connection, recorded
// below that party's transport.Meter. Times are nanoseconds since the
// recorder was created.
type span struct {
	Op    int    `json:"op"`    // operation round the call belongs to
	Party string `json:"party"` // "alice", "bob", "p0".., "client", "shard"
	Edge  string `json:"edge"`  // connection the call used
	Chan  int    `json:"chan"`  // mux channel of the frame; 0 on an unmultiplexed edge
	Tag   string `json:"tag"`   // Meter tag at the call
	Kind  string `json:"kind"`  // "send" or "recv"
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int    `json:"bytes"`
}

// recorder keeps every span of a traced run in memory until the run
// ends. A nil *recorder records nothing, so untraced runs pay nothing.
type recorder struct {
	t0 time.Time
	op atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock; a nil recorder reads 0.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// begin starts the next timed operation: spans recorded from here on
// carry its number.
func (r *recorder) begin() {
	if r != nil {
		r.op.Add(1)
	}
}

// wrap places a span-recording connection around conn; with a nil
// recorder it returns conn itself. The caller binds the Meter that sits
// on top once it exists, so calls can be labelled with the Meter's tag.
// muxed says the session above multiplexes worker channels over conn, so
// every frame starts with its channel id.
func (r *recorder) wrap(conn transport.Conn, party, edge string, muxed bool) transport.Conn {
	if r == nil {
		return conn
	}
	return &spanConn{inner: conn, rec: r, party: party, edge: edge, muxed: muxed}
}

// metered wraps conn for recording and puts a bound Meter on top: the
// stack every party of a workload talks through.
func (r *recorder) metered(conn transport.Conn, party, edge string, muxed bool) *transport.Meter {
	c := r.wrap(conn, party, edge, muxed)
	m := transport.NewMeter(c)
	bindMeter(c, m)
	return m
}

// bindMeter tells a span connection which Meter to read tags from.
func bindMeter(c transport.Conn, m *transport.Meter) {
	if sc, ok := c.(*spanConn); ok {
		sc.meter.Store(m)
	}
}

func (r *recorder) add(s span) {
	s.Op = int(r.op.Load())
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// spanConn timestamps every Send and Recv of the connection under it.
type spanConn struct {
	inner       transport.Conn
	rec         *recorder
	party, edge string
	muxed       bool
	meter       atomic.Pointer[transport.Meter]
}

// channel reads a multiplexed frame's channel id.
func (c *spanConn) channel(b []byte) int {
	if !c.muxed {
		return 0
	}
	ch, _, err := transport.DecodeMuxFrame(b)
	if err != nil {
		return 0
	}
	return int(ch)
}

func (c *spanConn) tag() string {
	if m := c.meter.Load(); m != nil {
		return m.Tag()
	}
	return "untagged"
}

func (c *spanConn) Send(b []byte) error {
	tag, start := c.tag(), c.rec.now()
	err := c.inner.Send(b)
	c.rec.add(span{Party: c.party, Edge: c.edge, Chan: c.channel(b), Tag: tag, Kind: "send", Start: start, End: c.rec.now(), Bytes: len(b)})
	return err
}

func (c *spanConn) Recv() ([]byte, error) {
	tag, start := c.tag(), c.rec.now()
	b, err := c.inner.Recv()
	c.rec.add(span{Party: c.party, Edge: c.edge, Chan: c.channel(b), Tag: tag, Kind: "recv", Start: start, End: c.rec.now(), Bytes: len(b)})
	return b, err
}

func (c *spanConn) Close() error { return c.inner.Close() }

// tagLayer maps a Meter tag to the layer whose work it labels. A tag it
// does not know is an error, so a renamed tag cannot silently leave the
// breakdown.
func tagLayer(tag string) (string, error) {
	switch tag {
	case "untagged":
		// Mux channels and the mesh set no tags.
		return "untagged", nil
	case "handshake", "session.op", "adp.owners":
		return "core", nil
	case "enh.share":
		return "mpc", nil
	case "enh.select", "enh.final":
		return "compare", nil
	}
	if i := strings.LastIndexByte(tag, '.'); i > 0 {
		switch tag[i+1:] {
		case "mp":
			return "mpc", nil
		case "cmp":
			return "compare", nil
		case "idx":
			return "spatial", nil
		case "op":
			return "core", nil
		}
	}
	return "", fmt.Errorf("bench: Meter tag %q has no layer", tag)
}

// usage is what one actor spent on one tag inside a window.
type usage struct {
	Busy   float64 // s between one call's return and the next call's start
	Wait   float64 // s inside Recv
	Send   float64 // s inside Send
	Frames int64   // frames sent
	Bytes  int64   // bytes sent
}

func (u *usage) add(o usage) {
	u.Busy += o.Busy
	u.Wait += o.Wait
	u.Send += o.Send
	u.Frames += o.Frames
	u.Bytes += o.Bytes
}

// An actor is one sequential thread of protocol work: a whole party at
// W=1 (it drives all its edges from one goroutine), or one worker channel
// of a party when the session is multiplexed.
func (s span) actor(perChannel bool) string {
	if perChannel {
		return fmt.Sprintf("%s/%d", s.Party, s.Chan)
	}
	return s.Party
}

// byActor groups spans by the actor that made the call, each group in
// the order the calls returned.
func byActor(spans []span, perChannel bool) map[string][]span {
	out := make(map[string][]span)
	for _, s := range spans {
		a := s.actor(perChannel)
		out[a] = append(out[a], s)
	}
	for _, as := range out {
		sort.SliceStable(as, func(i, j int) bool { return as[i].End < as[j].End })
	}
	return out
}

// actorUsage derives one actor's per-tag usage from its spans, given in
// the order the calls returned, inside the window [from, to] (recorder
// nanoseconds). The actor is sequential, so
// the gap before a call is the time it computed; the gap is charged to
// the tag of the call that ends it. flips counts changes of direction
// (send→recv or recv→send): two per round trip.
//
// A whole party works from the window's start to its end, so the time
// before its first call and after its last is busy too. A worker channel
// idles at either end, so only the gaps between its calls count; and its
// Recv spans are made by the mux's reader, which sits in Recv whenever
// nothing arrives, so a reply's wait runs from the channel's previous
// call, not from when the reader began to block.
func actorUsage(spans []span, from, to int64, perChannel bool) (perTag map[string]usage, flips int) {
	perTag = make(map[string]usage)
	prevEnd, prevKind, lastTag := from, "", ""
	for _, s := range spans {
		if s.End < from || s.End > to {
			continue
		}
		u := perTag[s.Tag]
		gap := s.Start - prevEnd
		if perChannel && (s.Kind == "recv" || prevKind == "") {
			gap = 0
		}
		if gap > 0 {
			u.Busy += float64(gap) / 1e9
		}
		if s.Kind == "recv" {
			u.Wait += float64(s.End-max(s.Start, prevEnd)) / 1e9
		} else {
			u.Send += float64(s.End-s.Start) / 1e9
			u.Frames++
			u.Bytes += int64(s.Bytes)
		}
		perTag[s.Tag] = u
		if prevKind != "" && prevKind != s.Kind {
			flips++
		}
		prevEnd, prevKind, lastTag = max(prevEnd, s.End), s.Kind, s.Tag
	}
	if !perChannel && lastTag != "" && to > prevEnd {
		u := perTag[lastTag]
		u.Busy += float64(to-prevEnd) / 1e9
		perTag[lastTag] = u
	}
	return perTag, flips
}

// writeTrace writes spans as JSON lines to dir/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
