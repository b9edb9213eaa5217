package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestListenerAcceptsManyPeers: the multi-accept listener serves several
// sequential and concurrent dials, and the MeterGroup aggregate equals
// the sum of the per-connection traffic.
func TestListenerAcceptsManyPeers(t *testing.T) {
	lis, err := NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	const peers = 3
	var group MeterGroup
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < peers; i++ {
			conn, err := lis.Accept()
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			wg.Add(1)
			go func(conn Conn) {
				defer wg.Done()
				defer conn.Close()
				m := group.New(conn)
				b, err := m.Recv()
				if err != nil {
					t.Errorf("server recv: %v", err)
					return
				}
				if err := m.Send(append([]byte("ack:"), b...)); err != nil {
					t.Errorf("server send: %v", err)
				}
			}(conn)
		}
	}()

	for i := 0; i < peers; i++ {
		c, err := Dial(lis.Addr())
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte(fmt.Sprintf("hello-%d", i))
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		b, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != "ack:"+string(msg) {
			t.Errorf("peer %d: reply %q", i, b)
		}
		c.Close()
	}
	wg.Wait()

	agg := group.Stats()
	if agg.MessagesRecv != peers || agg.MessagesSent != peers {
		t.Errorf("aggregate messages %d/%d, want %d/%d", agg.MessagesSent, agg.MessagesRecv, peers, peers)
	}
	if agg.BytesRecv == 0 || agg.BytesSent <= agg.BytesRecv {
		t.Errorf("aggregate bytes sent %d recv %d look wrong", agg.BytesSent, agg.BytesRecv)
	}
}

// TestListenerCloseUnblocksAccept: Close maps the pending Accept to
// ErrClosed — the SIGINT path of the serve loop.
func TestListenerCloseUnblocksAccept(t *testing.T) {
	lis, err := NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := lis.Accept()
		done <- err
	}()
	if err := lis.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after Close = %v, want ErrClosed", err)
	}
}

// TestListenerIdleTimeout: a peer that connects and goes silent must
// surface as a Recv error within the configured idle window instead of
// parking the serving goroutine forever.
func TestListenerIdleTimeout(t *testing.T) {
	lis, err := NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	lis.SetConnOptions(100*time.Millisecond, time.Second)

	done := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		_, err = conn.Recv()
		done <- err
	}()

	peer, err := Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("silent peer's Recv returned without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle read deadline never fired")
	}
}

// TestListenerIdleTimeoutRearms: traffic inside the idle window keeps
// the connection alive — the deadline is per-Recv, not per-session.
func TestListenerIdleTimeoutRearms(t *testing.T) {
	lis, err := NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	lis.SetConnOptions(250*time.Millisecond, 0)

	done := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		for i := 0; i < 4; i++ {
			if _, err := conn.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	peer, err := Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// Four sends 100ms apart: total elapsed exceeds one idle window, but
	// no single gap does.
	for i := 0; i < 4; i++ {
		time.Sleep(100 * time.Millisecond)
		if err := peer.Send([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("re-armed idle deadline tripped on a live session: %v", err)
	}
}

// TestListenerIdleDisarmed: SetIdleArmed(false) suspends the deadline —
// a peer silent for longer than the idle window does not trip a
// disarmed Recv, and the frame sent after the silence arrives intact.
func TestListenerIdleDisarmed(t *testing.T) {
	lis, err := NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	lis.SetConnOptions(100*time.Millisecond, 0)

	done := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		conn.(*idleConn).SetIdleArmed(false)
		b, err := conn.Recv()
		if err == nil && string(b) != "late" {
			err = fmt.Errorf("recv %q, want %q", b, "late")
		}
		done <- err
	}()

	peer, err := Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// Stay silent for several idle windows, then send.
	time.Sleep(400 * time.Millisecond)
	if err := peer.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("disarmed Recv tripped during expected silence: %v", err)
	}
}

// TestListenerIdleRearmBlockedRead: SetIdleArmed(true) applies to a Recv
// already parked on the socket — net.Conn deadlines cover pending reads
// — so a session loop can re-arm after a compute phase without waiting
// for the next frame.
func TestListenerIdleRearmBlockedRead(t *testing.T) {
	lis, err := NewListener("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	lis.SetConnOptions(150*time.Millisecond, 0)

	accepted := make(chan Conn, 1)
	done := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		accepted <- conn
		defer conn.Close()
		conn.(*idleConn).SetIdleArmed(false)
		_, err = conn.Recv()
		done <- err
	}()

	peer, err := Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	conn := <-accepted
	// Give the disarmed Recv time to park on the socket, then re-arm: the
	// fresh idle window must start ticking for the pending read.
	time.Sleep(50 * time.Millisecond)
	conn.(*idleConn).SetIdleArmed(true)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("re-armed Recv returned without error on a silent peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed idle deadline never reached the blocked read")
	}
}
