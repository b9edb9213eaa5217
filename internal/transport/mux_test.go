package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// muxPair builds muxes over a connected pipe.
func muxPair() (*Mux, *Mux) {
	ca, cb := Pipe()
	return NewMux(ca), NewMux(cb)
}

func TestMuxFrameRoundTrip(t *testing.T) {
	for _, ch := range []uint32{0, 1, 7, MaxMuxChannels - 1} {
		payload := []byte{1, 2, 3, 250}
		frame := AppendMuxFrame(nil, ch, payload)
		gotCh, gotPayload, err := DecodeMuxFrame(frame)
		if err != nil {
			t.Fatalf("ch %d: %v", ch, err)
		}
		if gotCh != ch || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("ch %d: round trip got (%d, %v)", ch, gotCh, gotPayload)
		}
	}
	if _, _, err := DecodeMuxFrame(nil); err == nil {
		t.Error("empty frame decoded without error")
	}
	if _, _, err := DecodeMuxFrame(AppendMuxFrame(nil, MaxMuxChannels, nil)); err == nil {
		t.Error("out-of-range channel decoded without error")
	}
}

func TestMuxChannelsAreIndependentAndOrdered(t *testing.T) {
	ma, mb := muxPair()
	defer ma.Close()
	defer mb.Close()
	const perChan = 50
	var wg sync.WaitGroup
	for ch := uint32(0); ch < 3; ch++ {
		wg.Add(2)
		go func(ch uint32) {
			defer wg.Done()
			c := ma.Channel(ch)
			for i := 0; i < perChan; i++ {
				if err := c.Send([]byte(fmt.Sprintf("%d:%d", ch, i))); err != nil {
					t.Errorf("send ch %d: %v", ch, err)
					return
				}
			}
		}(ch)
		go func(ch uint32) {
			defer wg.Done()
			c := mb.Channel(ch)
			for i := 0; i < perChan; i++ {
				b, err := c.Recv()
				if err != nil {
					t.Errorf("recv ch %d: %v", ch, err)
					return
				}
				if want := fmt.Sprintf("%d:%d", ch, i); string(b) != want {
					t.Errorf("ch %d: got %q want %q (per-channel order broken)", ch, b, want)
					return
				}
			}
		}(ch)
	}
	wg.Wait()
}

// TestMuxSlowChannelDoesNotBlockOthers pins the head-of-line property: a
// channel nobody reads must not stall delivery on its siblings.
func TestMuxSlowChannelDoesNotBlockOthers(t *testing.T) {
	ma, mb := muxPair()
	defer ma.Close()
	defer mb.Close()
	// Queue traffic for channel 1 that nobody consumes yet.
	for i := 0; i < 20; i++ {
		if err := ma.Channel(1).Send([]byte("stalled")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ma.Channel(2).Send([]byte("live")); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		b, err := mb.Channel(2).Recv()
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got <- b
	}()
	select {
	case b := <-got:
		if string(b) != "live" {
			t.Fatalf("got %q", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live channel blocked behind an unread sibling")
	}
}

// TestMuxBacklogIsBounded floods channel 63 — an id the receiving side
// never asked for — while its session channels wait. The Mux must stop
// buffering at its bound, by frames and by bytes, and fail every channel
// with ErrMuxBacklog; the flooded channel hands out what it queued first.
func TestMuxBacklogIsBounded(t *testing.T) {
	const byteBound = 64 << 10
	for _, tc := range []struct {
		name    string
		payload int // bytes per flooding frame
		frames  int // frames the bound admits
	}{
		{"frames", 16, MaxMuxBacklogFrames},
		{"bytes", 10 << 10, byteBound / (10 << 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ma, mb := muxPair()
			defer ma.Close()
			defer mb.Close()
			if tc.name == "bytes" {
				mb.backlogBytes = byteBound
			}
			const session = 4
			errc := make(chan error, session)
			for ch := uint32(0); ch < session; ch++ {
				go func(c Conn) {
					_, err := c.Recv()
					errc <- err
				}(mb.Channel(ch))
			}
			flood, payload := ma.Channel(MaxMuxChannels-1), make([]byte, tc.payload)
			for i := 0; i < tc.frames+8; i++ {
				if err := flood.Send(payload); err != nil {
					t.Fatal(err)
				}
			}
			for ch := 0; ch < session; ch++ {
				select {
				case err := <-errc:
					if !errors.Is(err, ErrMuxBacklog) {
						t.Errorf("session channel: err = %v, want ErrMuxBacklog", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a session channel is still waiting behind the flood")
				}
			}
			flooded := mb.Channel(MaxMuxChannels - 1)
			got := 0
			for {
				_, err := flooded.Recv()
				if err != nil {
					if !errors.Is(err, ErrMuxBacklog) {
						t.Errorf("flooded channel: err = %v, want ErrMuxBacklog", err)
					}
					break
				}
				if got++; got > tc.frames {
					t.Fatalf("flooded channel delivered more than the %d frames its bound admits", tc.frames)
				}
			}
			if got != tc.frames {
				t.Errorf("flooded channel delivered %d frames, want the %d its bound admits", got, tc.frames)
			}
			frames, bytes := flooded.(*muxChan).BacklogHighWater()
			if frames > MaxMuxBacklogFrames || bytes > mb.backlogBytes {
				t.Errorf("backlog reached %d frames / %d bytes, bounds %d / %d", frames, bytes, MaxMuxBacklogFrames, mb.backlogBytes)
			}
			// A channel first asked for after the failure inherits it.
			if _, err := mb.Channel(9).Recv(); !errors.Is(err, ErrMuxBacklog) {
				t.Errorf("late channel: err = %v, want ErrMuxBacklog", err)
			}
		})
	}
}

func TestMuxCloseUnblocksChannels(t *testing.T) {
	ma, mb := muxPair()
	if err := ma.Channel(0).Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Channel(0).Recv(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := mb.Channel(3).Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ma.Close()
	mb.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv not unblocked by close")
	}
}

// TestMeterConcurrentChannelWriters is the satellite race test: two mux
// channels writing simultaneously through one shared Meter must keep the
// aggregate counters exact (run under -race to catch unguarded state).
func TestMeterConcurrentChannelWriters(t *testing.T) {
	ca, cb := Pipe()
	meterA := NewMeter(ca)
	ma, mb := NewMux(meterA), NewMux(cb)
	defer ma.Close()
	defer mb.Close()

	// Nobody paces these senders, so they stay below MaxMuxBacklogFrames.
	const perChan = 60
	var wg sync.WaitGroup
	recvDone := make(chan int64, 2)
	for ch := uint32(0); ch < 2; ch++ {
		wg.Add(1)
		go func(ch uint32) {
			defer wg.Done()
			c := ma.Channel(ch)
			if _, ok := c.(interface{ SetTag(string) string }); !ok {
				t.Errorf("mux channel does not forward tags")
				return
			}
			c.(interface{ SetTag(string) string }).SetTag(fmt.Sprintf("worker%d", ch))
			for i := 0; i < perChan; i++ {
				if err := c.Send([]byte{byte(ch), byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(ch)
		go func(ch uint32) {
			var n int64
			c := mb.Channel(ch)
			for i := 0; i < perChan; i++ {
				b, err := c.Recv()
				if err != nil {
					t.Errorf("recv: %v", err)
					break
				}
				n += int64(len(b))
			}
			recvDone <- n
		}(ch)
	}
	wg.Wait()
	total := <-recvDone + <-recvDone

	stats := meterA.Stats()
	if stats.MessagesSent != 2*perChan {
		t.Errorf("meter counted %d messages, want %d", stats.MessagesSent, 2*perChan)
	}
	// Each frame carries the 1-byte channel tag plus the 2-byte payload.
	if want := int64(2*perChan) * 3; stats.BytesSent != want {
		t.Errorf("meter counted %d bytes, want %d", stats.BytesSent, want)
	}
	if total != 2*perChan*2 {
		t.Errorf("receivers saw %d payload bytes, want %d", total, 2*perChan*2)
	}
}

func TestLatencyPipeDelaysDelivery(t *testing.T) {
	const d = 30 * time.Millisecond
	ca, cb := LatencyPipe(d)
	defer ca.Close()
	defer cb.Close()
	start := time.Now()
	if err := ca.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	b, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello" {
		t.Fatalf("got %q", b)
	}
	if el := time.Since(start); el < d {
		t.Errorf("message delivered after %v, want ≥ %v", el, d)
	}
	// Two messages in flight overlap their delays: total wait ≈ d, not 2d.
	start = time.Now()
	ca.Send([]byte("a"))
	ca.Send([]byte("b"))
	cb.Recv()
	cb.Recv()
	if el := time.Since(start); el > 3*d {
		t.Errorf("pipelined messages took %v — latency must not serialize in-flight messages", el)
	}
}
