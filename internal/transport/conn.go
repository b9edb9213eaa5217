// Package transport provides the two-party communication substrate used by
// every protocol in this repository: message-oriented duplex connections
// (in-process pipes and TCP framing), a compact wire codec for protocol
// messages, and instrumented connections that attribute bytes and messages
// to protocol tags. The instrumentation is what the communication-complexity
// experiments (E3–E5 of internal/experiments) read.
package transport

import (
	"errors"
	"sync"
)

// Conn is a reliable, ordered, message-oriented duplex channel between the
// two parties of a protocol. Each Conn is used by exactly one goroutine
// (one party); Send and Recv never need external locking.
type Conn interface {
	// Send transmits one message to the peer. The slice is not retained.
	Send(b []byte) error
	// Recv blocks for the next message from the peer. It returns
	// ErrClosed after the peer closes its side and all queued messages
	// have been consumed.
	Recv() ([]byte, error)
	// Close releases the connection. Pending messages already sent remain
	// receivable by the peer.
	Close() error
}

// ErrClosed is returned by Recv and Send once a connection is closed.
var ErrClosed = errors.New("transport: connection closed")

// pipeHalf is one endpoint of an in-process connection.
type pipeHalf struct {
	send chan<- []byte
	recv <-chan []byte

	mu       sync.Mutex
	closed   bool
	peerDone <-chan struct{}
	done     chan struct{}
}

// Pipe returns a connected pair of in-process Conns. Messages written on
// one side are received on the other in order. The internal buffer is large
// enough that the strictly alternating protocols in this repository never
// block on Send.
func Pipe() (Conn, Conn) {
	const depth = 4096
	ab := make(chan []byte, depth)
	ba := make(chan []byte, depth)
	aDone := make(chan struct{})
	bDone := make(chan struct{})
	a := &pipeHalf{send: ab, recv: ba, done: aDone, peerDone: bDone}
	b := &pipeHalf{send: ba, recv: ab, done: bDone, peerDone: aDone}
	return a, b
}

func (p *pipeHalf) Send(b []byte) error {
	if err := checkFrameSize(len(b)); err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.mu.Unlock()
	msg := make([]byte, len(b))
	copy(msg, b)
	select {
	case p.send <- msg:
		return nil
	case <-p.peerDone:
		return ErrClosed
	}
}

func (p *pipeHalf) Recv() ([]byte, error) {
	select {
	case m := <-p.recv:
		return m, nil
	default:
	}
	select {
	case m := <-p.recv:
		return m, nil
	case <-p.peerDone:
		// Peer closed; drain anything that raced in.
		select {
		case m := <-p.recv:
			return m, nil
		default:
			return nil, ErrClosed
		}
	case <-p.done:
		return nil, ErrClosed
	}
}

func (p *pipeHalf) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.done)
	}
	return nil
}

// Run2 executes the two halves of a protocol over an in-process pipe and
// waits for both to finish. It returns the first non-nil error from either
// party. Both connections are closed when Run2 returns.
func Run2(alice, bob func(Conn) error) error {
	ca, cb := Pipe()
	return RunPair(ca, cb, alice, bob)
}

// RunPair executes the two halves over an existing connection pair.
func RunPair(ca, cb Conn, alice, bob func(Conn) error) error {
	errc := make(chan error, 2)
	go func() {
		err := alice(ca)
		ca.Close()
		errc <- err
	}()
	go func() {
		err := bob(cb)
		cb.Close()
		errc <- err
	}()
	var first error
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}
