package multiparty

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/transport"
)

// Peer failure on the mesh, mirroring core's failure_test.go: a party
// that disappears mid-Run must cost every other party one typed error in
// bounded time — never a hang, labels, or a leaked goroutine.

// edgeDropper closes all of one party's mesh edges once the party has
// received its budget of frames.
type edgeDropper struct {
	remaining atomic.Int64
	edges     []transport.Conn
}

type droppingConn struct {
	transport.Conn
	d *edgeDropper
}

func (c *droppingConn) Recv() ([]byte, error) {
	if c.d.remaining.Add(-1) < 0 {
		for _, e := range c.d.edges {
			e.Close()
		}
		return nil, transport.ErrClosed
	}
	return c.Conn.Recv()
}

func TestMeshPeerDisappearsMidRun(t *testing.T) {
	const k, victim = 3, 1
	for _, w := range []int{1, 4} {
		for _, afterMsgs := range []int64{0, 3, 12} {
			before := runtime.NumGoroutine()
			cfg := Config{
				Eps: 2, MinPts: 3, MaxCoord: 7, PaillierBits: 256, RSABits: 256,
				Engine: compare.EngineMasked, Parallel: w,
			}
			mesh := NewLocalMesh(k)
			drop := &edgeDropper{}
			drop.remaining.Store(math.MaxInt64) // armed once every session is established
			for q, c := range mesh[victim] {
				if q != victim {
					drop.edges = append(drop.edges, c)
					mesh[victim][q] = &droppingConn{Conn: c, d: drop}
				}
			}
			results := make([]*HorizontalResult, k)
			errs := make([]error, k)
			var established, done sync.WaitGroup
			established.Add(k)
			done.Add(k)
			for p := 0; p < k; p++ {
				go func(p int) {
					defer done.Done()
					// Each party closes its edges when it returns, as runMesh does.
					defer func() {
						for q, c := range mesh[p] {
							if q != p {
								c.Close()
							}
						}
					}()
					ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, threePartyPoints[p])
					established.Done()
					if err != nil {
						errs[p] = err
						return
					}
					established.Wait()
					if p == victim {
						drop.remaining.Store(afterMsgs)
					}
					results[p], errs[p] = ms.Run()
				}(p)
			}
			finished := make(chan struct{})
			go func() {
				done.Wait()
				close(finished)
			}()
			select {
			case <-finished:
			case <-time.After(60 * time.Second):
				t.Fatalf("W=%d afterMsgs=%d: mesh hung after party %d dropped", w, afterMsgs, victim)
			}
			for p, err := range errs {
				if !errors.Is(err, transport.ErrClosed) {
					t.Errorf("W=%d afterMsgs=%d party %d: err = %v, want transport.ErrClosed", w, afterMsgs, p, err)
				}
				if results[p] != nil {
					t.Errorf("W=%d afterMsgs=%d party %d: returned labels", w, afterMsgs, p)
				}
			}
			// Mux readers and responder workers unwind once their edge is
			// closed; give the scheduler a moment to retire them.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("W=%d afterMsgs=%d: %d goroutines outlive the run (%d before)", w, afterMsgs, n, before)
			}
		}
	}
}
