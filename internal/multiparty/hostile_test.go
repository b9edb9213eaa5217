package multiparty

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/spatial"
	"repro/internal/transport"
)

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

// hostileMeshAppend runs one mesh append whose swap frame from party 0 to
// party 1 — [count, GridDelta] — is rewritten by rewrite on the way out,
// and returns party 1's error.
func hostileMeshAppend(rewrite func([]byte) []byte) error {
	const k = 3
	mesh := NewLocalMesh(k)
	hostile := &rewriteConn{Conn: mesh[0][1]}
	mesh[0][1] = hostile
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				for q, c := range mesh[p] {
					if q != p {
						c.Close()
					}
				}
			}()
			ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, testCfg(compare.EngineMasked), meshStream.init[p])
			if err != nil {
				errs[p] = err
				return
			}
			if p == 0 {
				hostile.arm(rewrite)
			}
			errs[p] = ms.Append(meshStream.batches[0][p])
		}(p)
	}
	wg.Wait()
	return errs[1]
}

// TestHostileMeshAppendCount: an honest mesh append swap whose declared
// point count is rewritten on the way out — to 2^64−1, or one past
// core.MaxPoints — fails the receiving party's Append with
// core.ErrPointCount, before anything is sized from it.
func TestHostileMeshAppendCount(t *testing.T) {
	for _, count := range []uint64{^uint64(0), core.MaxPoints + 1} {
		t.Run(fmt.Sprint(count), func(t *testing.T) {
			err := hostileMeshAppend(func(b []byte) []byte {
				r := transport.NewReader(b)
				r.Uint()
				return append(transport.NewBuilder().PutUint(count).Bytes(), b[len(b)-r.Remaining():]...)
			})
			if !errors.Is(err, core.ErrPointCount) {
				t.Fatalf("party 1 absorbed an append of %d points: %v, want core.ErrPointCount", count, err)
			}
		})
	}
}

// TestHostileMeshAppendDeltaCount: the same swap with its count rewritten
// to one past its own GridDelta's padded total — far under core.MaxPoints
// — fails party 1's Append with core.ErrPointCount.
func TestHostileMeshAppendDeltaCount(t *testing.T) {
	err := hostileMeshAppend(func(b []byte) []byte {
		r := transport.NewReader(b)
		r.Uint()
		rest := b[len(b)-r.Remaining():]
		// The first append creates generation 2.
		d, err := spatial.DecodeGridDelta(r, 2, core.DefaultPruneQuantum, 2)
		if err != nil {
			panic("not a mesh append frame: " + err.Error())
		}
		return append(transport.NewBuilder().PutUint(uint64(d.Dir.PaddedTotal()+1)).Bytes(), rest...)
	})
	if !errors.Is(err, core.ErrPointCount) {
		t.Fatalf("party 1 absorbed an append its index delta contradicts: %v, want core.ErrPointCount", err)
	}
}
