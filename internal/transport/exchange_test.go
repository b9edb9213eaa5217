package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// bigFrame is larger than a loopback socket's send and receive buffers
// together, so a frame this size cannot be written before the peer reads.
const bigFrame = 12 << 20

// rawTCPPair returns the two ends of one loopback TCP connection.
func rawTCPPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	dialed, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if server == nil {
		dialed.Close()
		t.FailNow()
	}
	return dialed, server
}

// tcpPair returns a framed loopback TCP connection pair.
func tcpPair(t *testing.T) (Conn, Conn) {
	a, b := rawTCPPair(t)
	return NewFrameConn(a), NewFrameConn(b)
}

// idlePair returns a dialed framed conn and the Listener's idleConn that
// accepted it.
func idlePair(t *testing.T) (Conn, Conn) {
	t.Helper()
	lis, err := NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	lis.SetConnOptions(10*time.Second, 0)
	accepted := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	dialed, err := Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if _, ok := server.(*idleConn); !ok {
		dialed.Close()
		t.Fatalf("accepted %T, want *idleConn", server)
	}
	return dialed, server
}

// connKind builds one connected pair of a Conn implementation; shut
// closes everything the pair holds.
type connKind struct {
	name string
	make func(t *testing.T) (a, b Conn, shut func())
}

func connKinds() []connKind {
	closing := func(a, b Conn) func() {
		return func() { a.Close(); b.Close() }
	}
	return []connKind{
		{"pipe", func(t *testing.T) (Conn, Conn, func()) {
			a, b := Pipe()
			return a, b, closing(a, b)
		}},
		{"latency pipe", func(t *testing.T) (Conn, Conn, func()) {
			a, b := LatencyPipe(time.Millisecond)
			return a, b, closing(a, b)
		}},
		{"tcp", func(t *testing.T) (Conn, Conn, func()) {
			a, b := tcpPair(t)
			return a, b, closing(a, b)
		}},
		{"listener idle conn", func(t *testing.T) (Conn, Conn, func()) {
			a, b := idlePair(t)
			return a, b, closing(a, b)
		}},
		{"mux channel over tcp", func(t *testing.T) (Conn, Conn, func()) {
			ba, bb := tcpPair(t)
			ma, mb := NewMux(ba), NewMux(bb)
			a, b := ma.Channel(1), mb.Channel(1)
			return a, b, func() { a.Close(); b.Close(); ma.Close(); mb.Close() }
		}},
		{"meter over tcp", func(t *testing.T) (Conn, Conn, func()) {
			ba, bb := tcpPair(t)
			a, b := NewMeter(ba), NewMeter(bb)
			return a, b, closing(a, b)
		}},
	}
}

// frameOf is the i-th test frame a side sends: distinct content and a
// size that makes the stream kinds split it across many socket writes.
func frameOf(side string, i int) []byte {
	b := bytes.Repeat([]byte(side), 48<<10)
	binary.BigEndian.PutUint32(b, uint32(i))
	return b
}

// TestConnConcurrentSendRecv holds every Conn to its contract: one Send
// and one Recv may run at once. Each side sends a stream of frames from
// one goroutine while it receives the peer's stream on another; under
// -race this is the check that no implementation shares state between
// its two directions unguarded.
func TestConnConcurrentSendRecv(t *testing.T) {
	const frames = 40
	for _, kind := range connKinds() {
		t.Run(kind.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			a, b, shut := kind.make(t)
			var wg sync.WaitGroup
			for _, side := range []struct {
				conn     Conn
				own, her string
			}{{a, "a", "b"}, {b, "b", "a"}} {
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < frames; i++ {
						if err := side.conn.Send(frameOf(side.own, i)); err != nil {
							t.Errorf("%s send %d: %v", side.own, i, err)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < frames; i++ {
						got, err := side.conn.Recv()
						if err != nil {
							t.Errorf("%s recv %d: %v", side.own, i, err)
							return
						}
						if !bytes.Equal(got, frameOf(side.her, i)) {
							t.Errorf("%s recv %d: wrong frame", side.own, i)
							return
						}
					}
				}()
			}
			waitOrShut(t, &wg, shut, "concurrent send and recv")
			shut()
			testutil.CheckNoLeak(t, before, kind.name)
		})
	}
}

// waitOrShut waits for wg, or closes the conns and fails after a bound
// that only a deadlock reaches.
func waitOrShut(t *testing.T, wg *sync.WaitGroup, shut func(), what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		shut()
		<-done
		t.Fatalf("%s: blocked for 10 s", what)
	}
}

// exchanged is what one side of exchangeBoth received, or its error.
type exchanged struct {
	got []byte
	err error
}

// exchangeBoth runs Exchange on both ends at once; sides is filled in
// once wg is done.
func exchangeBoth(a, b Conn, ma, mb []byte) (sides *[2]exchanged, wg *sync.WaitGroup) {
	sides, wg = new([2]exchanged), new(sync.WaitGroup)
	for i, end := range []struct {
		conn Conn
		msg  []byte
	}{{a, ma}, {b, mb}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Exchange(end.conn, NewBuilder().PutBytes(end.msg))
			sides[i].err = err
			if err == nil {
				sides[i].got = r.Bytes()
			}
		}()
	}
	return sides, wg
}

// TestExchangeLargeFramesOverTCP: two frames each larger than the socket
// buffers cross a loopback TCP connection in one Exchange per side. A
// send-then-receive swap leaves both parties blocked in their sends here.
func TestExchangeLargeFramesOverTCP(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b := tcpPair(t)
	shut := func() { a.Close(); b.Close() }
	ma, mb := bytes.Repeat([]byte{0xa1}, bigFrame), bytes.Repeat([]byte{0xb2}, bigFrame)
	sides, wg := exchangeBoth(a, b, ma, mb)
	waitOrShut(t, wg, shut, "12 MB exchange")
	for i, side := range sides {
		if side.err != nil {
			t.Fatalf("side %d: %v", i, side.err)
		}
	}
	if !bytes.Equal(sides[0].got, mb) || !bytes.Equal(sides[1].got, ma) {
		t.Error("a large frame arrived corrupted")
	}
	shut()
	testutil.CheckNoLeak(t, before, "large exchange")
}

// hangUp is a Conn whose party hangs up instead of sending: its Send
// writes half a frame (on a stream; nothing on a pipe) and closes.
type hangUp struct {
	Conn
	raw net.Conn // the stream under Conn, or nil for a pipe
}

func (h hangUp) Send(b []byte) error {
	if h.raw != nil {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
		h.raw.Write(hdr[:])
		h.raw.Write(b[:len(b)/2])
	}
	h.Conn.Close()
	return ErrClosed
}

// TestExchangePeerClosesMidExchange: a party that closes its end inside
// an Exchange — on a stream, halfway through its frame — leaves both
// parties with ErrClosed, in bounded time, and no goroutine behind.
func TestExchangePeerClosesMidExchange(t *testing.T) {
	for _, kind := range []struct {
		name string
		make func(t *testing.T) (a, b Conn, raw net.Conn)
	}{
		{"pipe", func(t *testing.T) (Conn, Conn, net.Conn) {
			a, b := Pipe()
			return a, b, nil
		}},
		{"tcp", func(t *testing.T) (Conn, Conn, net.Conn) {
			ra, rb := rawTCPPair(t)
			return NewFrameConn(ra), NewFrameConn(rb), rb
		}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			a, b, raw := kind.make(t)
			shut := func() { a.Close(); b.Close() }
			sides, wg := exchangeBoth(a, hangUp{Conn: b, raw: raw}, []byte("hello"), make([]byte, 1<<16))
			waitOrShut(t, wg, shut, "exchange with a peer that hangs up")
			for i, side := range sides {
				if !errors.Is(side.err, ErrClosed) {
					t.Errorf("side %d: err = %v, want ErrClosed", i, side.err)
				}
			}
			shut()
			testutil.CheckNoLeak(t, before, kind.name)
		})
	}
}

// TestExchangeStalledPeerReleasedByClose: against a peer that neither
// reads nor sends, Exchange waits with its send pending — the pipes'
// queues are full, the frame outgrows TCP's buffers. Closing the conn
// releases it with ErrClosed and ends the send, before the peer closes.
func TestExchangeStalledPeerReleasedByClose(t *testing.T) {
	fill := func(t *testing.T, a Conn) {
		for i := 0; i < 4096; i++ { // the pipes' queue depth
			if err := a.Send(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, kind := range []struct {
		name string
		make func(t *testing.T) (Conn, Conn)
	}{
		{"pipe", func(t *testing.T) (Conn, Conn) {
			a, b := Pipe()
			fill(t, a)
			return a, b
		}},
		{"latency pipe", func(t *testing.T) (Conn, Conn) {
			a, b := LatencyPipe(time.Millisecond)
			fill(t, a)
			return a, b
		}},
		{"tcp", tcpPair},
	} {
		t.Run(kind.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			a, stalled := kind.make(t)
			defer stalled.Close()
			done := make(chan error, 1)
			go func() {
				_, err := Exchange(a, NewBuilder().PutBytes(make([]byte, bigFrame)))
				done <- err
			}()
			select {
			case err := <-done:
				t.Fatalf("Exchange returned %v against a silent peer", err)
			case <-time.After(100 * time.Millisecond):
			}
			a.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Errorf("err = %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not release Exchange")
			}
			testutil.CheckNoLeak(t, before, fmt.Sprintf("%s stalled exchange", kind.name))
		})
	}
}
