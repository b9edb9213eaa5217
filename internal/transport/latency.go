package transport

import (
	"sync"
	"time"
)

// LatencyPipe is Pipe with a one-way delivery delay: every message
// becomes receivable d after it was sent, modelling WAN latency without
// throttling throughput (messages in flight overlap). The bench `wan`
// workload uses it to measure how the query scheduler hides round-trip
// time (core.sched_overlap_x); the CPU cost of the cryptography is
// unchanged.
func LatencyPipe(d time.Duration) (Conn, Conn) {
	const depth = 4096
	ab := make(chan stamped, depth)
	ba := make(chan stamped, depth)
	aDone := make(chan struct{})
	bDone := make(chan struct{})
	a := &latencyHalf{d: d, send: ab, recv: ba, done: aDone, peerDone: bDone}
	b := &latencyHalf{d: d, send: ba, recv: ab, done: bDone, peerDone: aDone}
	return a, b
}

// stamped is one in-flight message with its send time.
type stamped struct {
	at time.Time
	b  []byte
}

// latencyHalf mirrors pipeHalf with delayed delivery.
type latencyHalf struct {
	d    time.Duration
	send chan<- stamped
	recv <-chan stamped

	mu       sync.Mutex
	closed   bool
	peerDone <-chan struct{}
	done     chan struct{}
}

func (p *latencyHalf) Send(b []byte) error {
	if err := checkFrameSize(len(b)); err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.mu.Unlock()
	msg := stamped{at: time.Now(), b: append([]byte(nil), b...)}
	select {
	case p.send <- msg:
		return nil
	case <-p.peerDone:
		return ErrClosed
	case <-p.done:
		return ErrClosed
	}
}

// hold blocks until the message's delivery time. Closure of either side
// does not cut delays short: a message already in flight arrives.
func (p *latencyHalf) hold(m stamped) []byte {
	if wait := time.Until(m.at.Add(p.d)); wait > 0 {
		time.Sleep(wait)
	}
	return m.b
}

func (p *latencyHalf) Recv() ([]byte, error) {
	select {
	case m := <-p.recv:
		return p.hold(m), nil
	default:
	}
	select {
	case m := <-p.recv:
		return p.hold(m), nil
	case <-p.peerDone:
		// Peer closed; drain anything that raced in.
		select {
		case m := <-p.recv:
			return p.hold(m), nil
		default:
			return nil, ErrClosed
		}
	case <-p.done:
		return nil, ErrClosed
	}
}

func (p *latencyHalf) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.done)
	}
	return nil
}
