package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// The wire codec is a compact, deterministic binary format for protocol
// messages: uvarint-framed fields with explicit signs for big integers.
// It deliberately avoids encoding/gob so that measured byte counts reflect
// protocol content, matching the paper's bit-complexity accounting.

// Builder assembles one protocol message.
type Builder struct {
	buf []byte
}

// NewBuilder returns an empty message builder.
func NewBuilder() *Builder { return &Builder{} }

// Bytes returns the assembled message.
func (b *Builder) Bytes() []byte { return b.buf }

// PutUint appends an unsigned integer.
func (b *Builder) PutUint(v uint64) *Builder {
	b.buf = binary.AppendUvarint(b.buf, v)
	return b
}

// PutInt appends a signed integer (zig-zag encoded).
func (b *Builder) PutInt(v int64) *Builder {
	b.buf = binary.AppendVarint(b.buf, v)
	return b
}

// PutBool appends a boolean.
func (b *Builder) PutBool(v bool) *Builder {
	if v {
		return b.PutUint(1)
	}
	return b.PutUint(0)
}

// PutBytes appends a length-prefixed byte slice.
func (b *Builder) PutBytes(p []byte) *Builder {
	b.PutUint(uint64(len(p)))
	b.buf = append(b.buf, p...)
	return b
}

// PutBig appends a big.Int as sign byte + magnitude bytes. nil encodes as
// zero.
func (b *Builder) PutBig(x *big.Int) *Builder {
	if x == nil {
		x = new(big.Int)
	}
	var sign byte
	switch x.Sign() {
	case -1:
		sign = 2
	case 1:
		sign = 1
	}
	b.buf = append(b.buf, sign)
	return b.PutBytes(x.Bytes())
}

// PutBigs appends a count-prefixed list of big.Ints.
func (b *Builder) PutBigs(xs []*big.Int) *Builder {
	b.PutUint(uint64(len(xs)))
	for _, x := range xs {
		b.PutBig(x)
	}
	return b
}

// PutInts appends a count-prefixed list of signed integers.
func (b *Builder) PutInts(xs []int64) *Builder {
	b.PutUint(uint64(len(xs)))
	for _, x := range xs {
		b.PutInt(x)
	}
	return b
}

// PutBools appends a count-prefixed list of booleans — the result frame of
// the batched comparison sub-protocols.
func (b *Builder) PutBools(xs []bool) *Builder {
	b.PutUint(uint64(len(xs)))
	for _, x := range xs {
		b.PutBool(x)
	}
	return b
}

// PutString appends a length-prefixed string.
func (b *Builder) PutString(s string) *Builder {
	return b.PutBytes([]byte(s))
}

// ErrTruncated reports a message shorter than its declared contents.
var ErrTruncated = errors.New("transport: truncated message")

// Reader parses a message produced by Builder. Methods record the first
// error; callers check Err once after the reads (the error-sticky style of
// bufio.Scanner).
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps a received message for parsing.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first parse error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uint reads an unsigned integer.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a signed integer.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Uint() != 0 }

// Bytes reads a length-prefixed byte slice. The returned slice aliases the
// message buffer.
func (r *Reader) Bytes() []byte {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)) < n {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.buf[:n]
	r.buf = r.buf[n:]
	return p
}

// Big reads a big.Int.
func (r *Reader) Big() *big.Int {
	if r.err != nil {
		return new(big.Int)
	}
	if len(r.buf) < 1 {
		r.fail(ErrTruncated)
		return new(big.Int)
	}
	sign := r.buf[0]
	r.buf = r.buf[1:]
	mag := r.Bytes()
	if r.err != nil {
		return new(big.Int)
	}
	x := new(big.Int).SetBytes(mag)
	switch sign {
	case 0:
		if x.Sign() != 0 {
			r.fail(fmt.Errorf("transport: zero-signed big with nonzero magnitude"))
		}
	case 1:
	case 2:
		x.Neg(x)
	default:
		r.fail(fmt.Errorf("transport: bad sign byte %d", sign))
	}
	return x
}

// Bigs reads a count-prefixed list of big.Ints.
func (r *Reader) Bigs() []*big.Int {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) { // each element needs ≥1 byte
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = r.Big()
	}
	return out
}

// Ints reads a count-prefixed list of at most limit signed integers — the
// caller's bound, a dimension or an expected length. A longer declared
// count is refused before anything is sized from it, as is one the frame's
// remaining bytes cannot back.
func (r *Reader) Ints(limit int) []int64 {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail(ErrTruncated)
		return nil
	}
	if n > uint64(max(limit, 0)) {
		r.fail(fmt.Errorf("transport: %d integers declared, limit %d", n, limit))
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// Bools reads a count-prefixed list of booleans.
func (r *Reader) Bools() []bool {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) { // each element needs ≥1 byte
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Remaining reports how many unread bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) }

// SendMsg is a convenience that sends a built message on conn.
func SendMsg(conn Conn, b *Builder) error { return conn.Send(b.Bytes()) }

// RecvMsg receives and wraps the next message.
func RecvMsg(conn Conn) (*Reader, error) {
	b, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	return NewReader(b), nil
}

// Exchange is the one symmetric swap: both parties send one message and
// receive the other's. It sends on its own goroutine while it receives,
// so the two frames cross the wire at once — one one-way delay, not the
// two of a receive-then-send — and two frames larger than the stream's
// buffers cannot block both senders. A receive error returns at once; the
// pending send then ends when the caller closes conn.
func Exchange(conn Conn, msg *Builder) (*Reader, error) {
	sent := make(chan error, 1)
	go func() { sent <- SendMsg(conn, msg) }()
	r, err := RecvMsg(conn)
	if err != nil {
		return nil, err
	}
	if err := <-sent; err != nil {
		return nil, err
	}
	return r, nil
}
