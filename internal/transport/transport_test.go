package transport

import (
	"bytes"
	"errors"
	"math/big"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	want := []byte("hello")
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestPipeBidirectional(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	m1, err := b.Recv()
	if err != nil || string(m1) != "ping" {
		t.Fatalf("b.Recv = %q, %v", m1, err)
	}
	m2, err := a.Recv()
	if err != nil || string(m2) != "pong" {
		t.Fatalf("a.Recv = %q, %v", m2, err)
	}
}

func TestPipeSendCopiesBuffer(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	buf := []byte("abc")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'z'
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Errorf("message aliased the sender's buffer: %q", got)
	}
}

func TestPipeOrdering(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	for i := byte(0); i < 100; i++ {
		if err := a.Send([]byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 100; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m[0] != i {
			t.Fatalf("message %d out of order: got %d", i, m[0])
		}
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after peer close = %v, want ErrClosed", err)
	}
	b.Close()
}

func TestPipeRecvDrainsAfterClose(t *testing.T) {
	a, b := Pipe()
	if err := a.Send([]byte("last")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := b.Recv()
	if err != nil || string(got) != "last" {
		t.Fatalf("Recv = %q, %v; want queued message", got, err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Recv = %v, want ErrClosed", err)
	}
	b.Close()
}

func TestPipeSendAfterCloseFails(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	a.Close()
	if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

func TestRun2PropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run2(
		func(c Conn) error { return sentinel },
		func(c Conn) error { _, err := c.Recv(); _ = err; return nil },
	)
	if !errors.Is(err, sentinel) {
		t.Errorf("Run2 = %v, want sentinel", err)
	}
}

func TestRun2Exchange(t *testing.T) {
	err := Run2(
		func(c Conn) error {
			if err := c.Send([]byte("question")); err != nil {
				return err
			}
			m, err := c.Recv()
			if err != nil {
				return err
			}
			if string(m) != "answer" {
				return errors.New("bad reply")
			}
			return nil
		},
		func(c Conn) error {
			m, err := c.Recv()
			if err != nil {
				return err
			}
			if string(m) != "question" {
				return errors.New("bad request")
			}
			return c.Send([]byte("answer"))
		},
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrameConnOverTCP(t *testing.T) {
	addr, connc, errc, err := ListenAsync("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var server Conn
	select {
	case server = <-connc:
	case err := <-errc:
		t.Fatal(err)
	}
	defer server.Close()

	payload := bytes.Repeat([]byte{0xab}, 100000)
	if err := client.Send(payload); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("large frame corrupted")
	}
	if err := server.Send([]byte{}); err != nil {
		t.Fatal(err)
	}
	if m, err := client.Recv(); err != nil || len(m) != 0 {
		t.Errorf("empty frame: %v, %v", m, err)
	}
}

func TestFrameConnRejectsOversizedFrame(t *testing.T) {
	c1, c2 := net.Pipe()
	fc := NewFrameConn(c1)
	defer fc.Close()
	go func() {
		// Hand-write a bogus header that declares a frame above the limit.
		hdr := []byte{0xff, 0xff, 0xff, 0xff}
		c2.Write(hdr)
		c2.Close()
	}()
	if _, err := fc.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Recv of an oversized header = %v, want ErrFrameTooLarge", err)
	}
}

// TestSendRefusesOversizeFrame: the frame limit is one rule on every Conn
// — a message TCP framing would refuse is refused, with the same typed
// error, by the in-process pipes, by a mux over either (whose limit counts
// the channel id) and through a Meter; a message exactly at the limit
// passes. Nothing oversize is ever delivered.
func TestSendRefusesOversizeFrame(t *testing.T) {
	addr, connc, errc, err := ListenAsync("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	select {
	case server := <-connc:
		defer server.Close()
	case err := <-errc:
		t.Fatal(err)
	}
	pipe, pipePeer := Pipe()
	lat, latPeer := LatencyPipe(time.Millisecond)
	muxBase, muxPeer := Pipe()
	muxLatBase, _ := LatencyPipe(time.Millisecond)
	metered, _ := Pipe()

	over := make([]byte, MaxFrameSize+1)
	for _, tc := range []struct {
		name string
		conn Conn
		msg  []byte
	}{
		{"tcp", tcp, over},
		{"pipe", pipe, over},
		{"latency pipe", lat, over},
		{"meter over pipe", NewMeter(metered), over},
		// One byte of channel id puts a limit-sized payload over.
		{"mux over pipe", NewMux(muxBase).Channel(3), over[:MaxFrameSize]},
		{"mux over latency pipe", NewMux(muxLatBase).Channel(3), over[:MaxFrameSize]},
	} {
		if err := tc.conn.Send(tc.msg); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s: Send of %d bytes = %v, want ErrFrameTooLarge", tc.name, len(tc.msg), err)
		}
	}

	// At the limit the frame travels, and it is the first thing the peer
	// sees: the refused sends left nothing behind.
	if err := pipe.Send(over[:MaxFrameSize]); err != nil {
		t.Fatalf("pipe: limit-sized frame refused: %v", err)
	}
	if got, err := pipePeer.Recv(); err != nil || len(got) != MaxFrameSize {
		t.Fatalf("pipe: limit-sized frame arrived as %d bytes, %v", len(got), err)
	}
	if err := lat.Send(over[:1]); err != nil {
		t.Fatal(err)
	}
	if got, err := latPeer.Recv(); err != nil || len(got) != 1 {
		t.Fatalf("latency pipe: got %d bytes, %v after a refused send", len(got), err)
	}
	if err := NewMux(muxBase).Channel(3).Send(over[:MaxFrameSize-1]); err != nil {
		t.Fatalf("mux: frame of exactly the limit refused: %v", err)
	}
	if got, err := muxPeer.Recv(); err != nil || len(got) != MaxFrameSize {
		t.Fatalf("mux: limit-sized frame arrived as %d bytes, %v", len(got), err)
	}
}

func TestFrameConnRecvOnClosedPeer(t *testing.T) {
	c1, c2 := net.Pipe()
	fc := NewFrameConn(c1)
	defer fc.Close()
	c2.Close()
	if _, err := fc.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv = %v, want ErrClosed", err)
	}
}

func TestMeterCountsPerTag(t *testing.T) {
	a, b := Pipe()
	ma := NewMeter(a)
	mb := NewMeter(b)
	defer ma.Close()
	defer mb.Close()

	ma.SetTag("phase1")
	mb.SetTag("phase1")
	if err := ma.Send(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Recv(); err != nil {
		t.Fatal(err)
	}
	prev := ma.SetTag("phase2")
	if prev != "phase1" {
		t.Errorf("SetTag returned %q, want phase1", prev)
	}
	mb.SetTag("phase2")
	if err := ma.Send(make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Recv(); err != nil {
		t.Fatal(err)
	}

	sa := ma.TagStats()
	if sa["phase1"].BytesSent != 10 || sa["phase2"].BytesSent != 7 {
		t.Errorf("per-tag sent bytes wrong: %+v", sa)
	}
	if ma.Stats().BytesSent != 17 || ma.Stats().MessagesSent != 2 {
		t.Errorf("totals wrong: %+v", ma.Stats())
	}
	sb := mb.TagStats()
	if sb["phase1"].BytesRecv != 10 || sb["phase2"].BytesRecv != 7 {
		t.Errorf("receiver per-tag bytes wrong: %+v", sb)
	}

	merged := Merge(ma, mb)
	if merged["phase1"].BytesSent != 10 || merged["phase1"].BytesRecv != 10 {
		t.Errorf("merge wrong: %+v", merged["phase1"])
	}
	if FormatTagStats(merged) == "" {
		t.Error("FormatTagStats empty")
	}
}

func TestMeterConcurrentSnapshot(t *testing.T) {
	a, b := Pipe()
	ma := NewMeter(a)
	defer ma.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ma.Send([]byte{1})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = ma.Stats()
			_ = ma.TagStats()
		}
	}()
	go func() {
		for i := 0; i < 200; i++ {
			b.Recv()
		}
	}()
	wg.Wait()
}

func TestWireRoundTrip(t *testing.T) {
	msg := NewBuilder().
		PutUint(42).
		PutInt(-7).
		PutBool(true).
		PutBytes([]byte("payload")).
		PutBig(big.NewInt(-123456789)).
		PutBigs([]*big.Int{big.NewInt(0), big.NewInt(99)}).
		PutInts([]int64{-1, 0, 1}).
		PutString("end").
		Bytes()

	r := NewReader(msg)
	if got := r.Uint(); got != 42 {
		t.Errorf("Uint = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if got := r.Bytes(); string(got) != "payload" {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.Big(); got.Int64() != -123456789 {
		t.Errorf("Big = %v", got)
	}
	bs := r.Bigs()
	if len(bs) != 2 || bs[0].Sign() != 0 || bs[1].Int64() != 99 {
		t.Errorf("Bigs = %v", bs)
	}
	is := r.Ints()
	if len(is) != 3 || is[0] != -1 || is[2] != 1 {
		t.Errorf("Ints = %v", is)
	}
	if got := r.String(); got != "end" {
		t.Errorf("String = %q", got)
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestWireTruncation(t *testing.T) {
	full := NewBuilder().PutBytes(bytes.Repeat([]byte{1}, 50)).Bytes()
	r := NewReader(full[:10])
	r.Bytes()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", r.Err())
	}
}

func TestWireEmptyReader(t *testing.T) {
	r := NewReader(nil)
	r.Uint()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", r.Err())
	}
	// Error is sticky; subsequent reads do not panic.
	r.Big()
	r.Bigs()
	r.Ints()
	if r.Int() != 0 || r.Bool() {
		t.Error("post-error reads should return zero values")
	}
}

func TestWireBadSignByte(t *testing.T) {
	b := NewBuilder().PutBig(big.NewInt(5)).Bytes()
	b[0] = 9 // corrupt the sign byte
	r := NewReader(b)
	r.Big()
	if r.Err() == nil {
		t.Error("want error for bad sign byte")
	}
}

func TestWireZeroSignNonzeroMagnitude(t *testing.T) {
	b := NewBuilder().PutBig(big.NewInt(5)).Bytes()
	b[0] = 0 // claim zero but keep magnitude bytes
	r := NewReader(b)
	r.Big()
	if r.Err() == nil {
		t.Error("want error for zero sign with nonzero magnitude")
	}
}

// Property: every big.Int survives a builder/reader round trip, including
// negatives and zero.
func TestWireBigProperty(t *testing.T) {
	f := func(raw []byte, neg bool) bool {
		x := new(big.Int).SetBytes(raw)
		if neg {
			x.Neg(x)
		}
		msg := NewBuilder().PutBig(x).Bytes()
		r := NewReader(msg)
		y := r.Big()
		return r.Err() == nil && x.Cmp(y) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: int64 zig-zag encoding round-trips.
func TestWireIntProperty(t *testing.T) {
	f := func(v int64) bool {
		r := NewReader(NewBuilder().PutInt(v).Bytes())
		return r.Int() == v && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSendRecvMsgHelpers(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if err := SendMsg(a, NewBuilder().PutUint(7)); err != nil {
		t.Fatal(err)
	}
	r, err := RecvMsg(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Uint() != 7 || r.Err() != nil {
		t.Error("helper round trip failed")
	}
}
