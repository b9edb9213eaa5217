package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
)

// MaxFrameSize bounds a single framed message. Protocol messages are at
// most a few ciphertexts plus headers; 16 MiB is far beyond any legitimate
// frame and protects against corrupted length prefixes.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge reports a message above MaxFrameSize. Every Conn in
// this package refuses such a message in Send — the in-process pipes and
// the mux (whose limit is on the full frame, channel id included) exactly
// like TCP framing — so a frame a socket would refuse fails the same way
// in an in-process test.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameSize")

// checkFrameSize is the one Send-side size rule.
func checkFrameSize(n int) error {
	if n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return nil
}

// frameConn adapts a stream (net.Conn or any io.ReadWriteCloser) into a
// message-oriented Conn using 4-byte big-endian length prefixes.
type frameConn struct {
	rw  io.ReadWriteCloser
	buf [4]byte
}

// NewFrameConn wraps a byte stream in length-prefixed message framing.
func NewFrameConn(rw io.ReadWriteCloser) Conn {
	return &frameConn{rw: rw}
}

func (f *frameConn) Send(b []byte) error {
	if err := checkFrameSize(len(b)); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := f.rw.Write(hdr[:]); err != nil {
		return streamErr("send header", err)
	}
	if _, err := f.rw.Write(b); err != nil {
		return streamErr("send body", err)
	}
	return nil
}

func (f *frameConn) Recv() ([]byte, error) {
	if _, err := io.ReadFull(f.rw, f.buf[:]); err != nil {
		if err == io.EOF {
			return nil, ErrClosed
		}
		return nil, streamErr("recv header", err)
	}
	n := binary.BigEndian.Uint32(f.buf[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: header announces %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(f.rw, body); err != nil {
		return nil, streamErr("recv body", err)
	}
	return body, nil
}

func (f *frameConn) Close() error { return f.rw.Close() }

// streamErr wraps a failed stream read or write. One that means the
// connection is gone — the peer's end of stream inside a frame, a reset or
// broken pipe, this side's own Close — also wraps ErrClosed, so a peer
// that drops a socket fails with the same typed error as one that closes
// a pipe.
func streamErr(op string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return fmt.Errorf("transport: %s: %w: %w", op, ErrClosed, err)
	}
	return fmt.Errorf("transport: %s: %w", op, err)
}

// Listen accepts exactly one peer connection on addr and returns the framed
// connection plus the bound address (useful when addr has port 0).
func Listen(addr string) (Conn, string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	defer l.Close()
	bound := l.Addr().String()
	c, err := l.Accept()
	if err != nil {
		return nil, bound, fmt.Errorf("transport: accept: %w", err)
	}
	return NewFrameConn(c), bound, nil
}

// ListenAsync binds addr immediately and returns the bound address plus a
// channel that yields the framed connection once a peer dials in.
func ListenAsync(addr string) (string, <-chan Conn, <-chan error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	connc := make(chan Conn, 1)
	errc := make(chan error, 1)
	go func() {
		defer l.Close()
		c, err := l.Accept()
		if err != nil {
			errc <- fmt.Errorf("transport: accept: %w", err)
			return
		}
		connc <- NewFrameConn(c)
	}()
	return l.Addr().String(), connc, errc, nil
}

// Dial connects to a listening peer and returns the framed connection.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewFrameConn(c), nil
}
