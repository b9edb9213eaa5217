package multiparty

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
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

// TestHostileMeshAppendCount: an honest mesh append swap whose declared
// point count is rewritten on the way out — to 2^64−1, or one past
// core.MaxPoints — fails the receiving party's Append with
// core.ErrPointCount, before anything is sized from it.
func TestHostileMeshAppendCount(t *testing.T) {
	const k = 3
	for _, count := range []uint64{^uint64(0), core.MaxPoints + 1} {
		t.Run(fmt.Sprint(count), func(t *testing.T) {
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
						// The append swap's frame: [count, GridDelta].
						hostile.arm(func(b []byte) []byte {
							r := transport.NewReader(b)
							r.Uint()
							return append(transport.NewBuilder().PutUint(count).Bytes(), b[len(b)-r.Remaining():]...)
						})
					}
					errs[p] = ms.Append(meshStream.batches[0][p])
				}(p)
			}
			wg.Wait()
			if !errors.Is(errs[1], core.ErrPointCount) {
				t.Fatalf("party 1 absorbed an append of %d points: %v, want core.ErrPointCount", count, errs[1])
			}
		})
	}
}
