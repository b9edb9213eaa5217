package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// A peer's declared point count is checked against MaxPoints before
// anything is sized from it. These tests play an honest initiator whose
// frames are rewritten on the way out — the handshake's count, or the
// count of one append op — and require the serving basic and enhanced
// sessions to fail with ErrPointCount. No table is ever sized from a
// hostile count here: the check runs before.

// rewriteConn applies rewrite to the next frame it sends, once.
type rewriteConn struct {
	transport.Conn
	mu      sync.Mutex
	rewrite func([]byte) []byte
}

func (c *rewriteConn) arm(f func([]byte) []byte) {
	c.mu.Lock()
	c.rewrite = f
	c.mu.Unlock()
}

func (c *rewriteConn) Send(b []byte) error {
	c.mu.Lock()
	f := c.rewrite
	c.rewrite = nil
	c.mu.Unlock()
	if f != nil {
		b = f(b)
	}
	return c.Conn.Send(b)
}

// hostileHandshake rewrites a handshake frame's point count.
func hostileHandshake(count uint64) func([]byte) []byte {
	return func(b []byte) []byte {
		r := transport.NewReader(b)
		version, proto, role := r.Uint(), r.String(), r.Uint()
		params := DecodeParams(r)
		dim := r.Uint()
		r.Uint()
		pai, rsaN, rsaE := r.Bytes(), r.Bytes(), r.Bytes()
		if r.Err() != nil || version != handshakeVersion {
			panic("not a handshake frame")
		}
		msg := transport.NewBuilder().PutUint(version).PutString(proto).PutUint(role)
		return params.Encode(msg).PutUint(dim).PutUint(count).PutBytes(pai).PutBytes(rsaN).PutBytes(rsaE).Bytes()
	}
}

// hostileAppend rewrites an append op's point count, leaving the rest of
// the frame as it was.
func hostileAppend(count uint64) func([]byte) []byte {
	return func(b []byte) []byte {
		r := transport.NewReader(b)
		op := r.Uint()
		r.Uint()
		if r.Err() != nil || op != sessOpAppend {
			panic("not an append op")
		}
		rest := b[len(b)-r.Remaining():]
		return append(transport.NewBuilder().PutUint(op).PutUint(count).Bytes(), rest...)
	}
}

type hostileFamily struct {
	name string
	open func(transport.Conn, Config, Role, [][]float64) (*Session, error)
}

var hostileFamilies = []hostileFamily{
	{"horizontal", NewHorizontalSession},
	{"enhanced", NewEnhancedHorizontalSession},
}

// TestHostileHandshakeCount: a handshake declaring 2^64−1 points, or one
// past MaxPoints, fails the serving session's establishment.
func TestHostileHandshakeCount(t *testing.T) {
	for _, fam := range hostileFamilies {
		for _, count := range []uint64{^uint64(0), MaxPoints + 1} {
			t.Run(fmt.Sprintf("%s/%d", fam.name, count), func(t *testing.T) {
				cfg := testCfg(compare.EngineMasked)
				ca, cb := transport.Pipe()
				hostile := &rewriteConn{Conn: ca}
				hostile.arm(hostileHandshake(count))
				var served error
				transport.RunPair(hostile, cb,
					func(transport.Conn) error {
						// Fails once the server hangs up; only the server's error counts.
						_, err := fam.open(hostile, cfg, RoleAlice, testAlicePts)
						return err
					},
					func(transport.Conn) error {
						_, served = fam.open(cb, cfg, RoleBob, testBobPts)
						return served
					})
				if !errors.Is(served, ErrPointCount) {
					t.Fatalf("serving session established over a count of %d: %v, want ErrPointCount", count, served)
				}
			})
		}
	}
}

// TestHostileAppendCount: an append op declaring 2^64−1 points, one past
// MaxPoints, or one past the room MaxPoints leaves above the points the
// initiator already holds, fails the serving session's Run loop.
func TestHostileAppendCount(t *testing.T) {
	room := uint64(MaxPoints - len(testAlicePts))
	for _, fam := range hostileFamilies {
		for _, count := range []uint64{^uint64(0), MaxPoints + 1, room + 1} {
			t.Run(fmt.Sprintf("%s/%d", fam.name, count), func(t *testing.T) {
				cfg := testCfg(compare.EngineMasked)
				ca, cb := transport.Pipe()
				hostile := &rewriteConn{Conn: ca}
				var served error
				transport.RunPair(hostile, cb,
					func(transport.Conn) error {
						sess, err := fam.open(hostile, cfg, RoleAlice, testAlicePts)
						if err != nil {
							return err
						}
						hostile.arm(hostileAppend(count))
						// Fails once the server hangs up; only the server's error counts.
						return sess.Append([][]float64{{1, 1}})
					},
					func(transport.Conn) error {
						sess, err := fam.open(cb, cfg, RoleBob, testBobPts)
						if err != nil {
							served = err
							return err
						}
						for {
							if _, served = sess.Run(); served != nil {
								return served
							}
						}
					})
				if !errors.Is(served, ErrPointCount) {
					t.Fatalf("serving session absorbed an append of %d points: %v, want ErrPointCount", count, served)
				}
			})
		}
	}
}

// deltaCount rewrites an append op's point count to one its own GridDelta
// cannot pad to: pick reads the delta's padded total and occupied cells
// and returns the count to declare. The delta is the first append's, of
// generation 2 (the construction-time index is generation 1).
func deltaCount(quantum int, pick func(padded, cells int) uint64) func([]byte) []byte {
	return func(b []byte) []byte {
		r := transport.NewReader(b)
		op := r.Uint()
		r.Uint()
		rest := b[len(b)-r.Remaining():]
		d, err := spatial.DecodeGridDelta(r, 2, quantum, 2)
		if err != nil || op != sessOpAppend {
			panic("not the first append op of a horizontal session")
		}
		count := pick(d.Dir.PaddedTotal(), len(d.Dir.Cells))
		return append(transport.NewBuilder().PutUint(op).PutUint(count).Bytes(), rest...)
	}
}

// TestHostileAppendDeltaCount: an append op whose count is rewritten to one
// past its GridDelta's padded total, or one below what its padded cells
// must hold — both far under MaxPoints — fails the serving session's Run
// loop with ErrPointCount.
func TestHostileAppendDeltaCount(t *testing.T) {
	cases := map[string]func(padded, cells int) uint64{
		"over":  func(padded, _ int) uint64 { return uint64(padded + 1) },
		"under": func(padded, cells int) uint64 { return uint64(padded - cells*(DefaultPruneQuantum-1) - 1) },
	}
	for _, fam := range hostileFamilies {
		for name, pick := range cases {
			t.Run(fam.name+"/"+name, func(t *testing.T) {
				cfg := testCfg(compare.EngineMasked)
				ca, cb := transport.Pipe()
				hostile := &rewriteConn{Conn: ca}
				var served error
				transport.RunPair(hostile, cb,
					func(transport.Conn) error {
						sess, err := fam.open(hostile, cfg, RoleAlice, testAlicePts)
						if err != nil {
							return err
						}
						hostile.arm(deltaCount(DefaultPruneQuantum, pick))
						// Fails once the server hangs up; only the server's error counts.
						if err := sess.Append([][]float64{{1, 1}, {1, 2}}); err != nil {
							return err
						}
						_, err = sess.Run()
						return err
					},
					func(transport.Conn) error {
						sess, err := fam.open(cb, cfg, RoleBob, testBobPts)
						if err != nil {
							served = err
							return err
						}
						for {
							if _, served = sess.Run(); served != nil {
								return served
							}
						}
					})
				if !errors.Is(served, ErrPointCount) {
					t.Fatalf("serving session absorbed an append its index delta contradicts: %v, want ErrPointCount", served)
				}
			})
		}
	}
}

// TestHostileQueryCellCount: a pruned announcement in a 1 MB frame that
// declares a million cells — a query names at most its cell's 3^dim
// neighbours — is refused before anything is sized from the count.
func TestHostileQueryCellCount(t *testing.T) {
	s, own, _ := opFuzzFixture(t)
	const n = 1 << 20
	frame := append(transport.NewBuilder().PutBool(true).PutUint(n).Bytes(), make([]byte, n)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := s.readPruned(transport.NewReader(frame), own, 1, own.Gens())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("an announcement of %d cells accepted", n)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("refusing %d cells allocated %d bytes first", n, d)
	}
}
