package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/transport"
)

// TestSetupLegs pins set-up to its one-way legs over a delayed link: the
// hello and the index swap are one leg each, since both parties send
// while they receive, and arbitrary's ownership swap is a third. So with
// 256-bit keys, whose draw is small next to the delay, both parties are
// established within 2.5 one-way delays (3.5 for arbitrary); a swap in
// which one party receives before it sends costs a leg more.
func TestSetupLegs(t *testing.T) {
	const d = 50 * time.Millisecond
	legs := map[string]int{"horizontal": 2, "enhanced": 2, "vertical": 2, "arbitrary": 3}
	cfg := parallelCfg(compare.EngineMasked, 1, PruneGrid)
	for _, fam := range latencyFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			bound := time.Duration(2*legs[fam.name]+1) * d / 2
			ca, cb := transport.LatencyPipe(d)
			defer ca.Close()
			defer cb.Close()
			var took [2]time.Duration
			var errs [2]error
			var wg sync.WaitGroup
			start := time.Now()
			for p, open := range []func(transport.Conn, Config) (*Session, error){fam.newA, fam.newB} {
				conn := []transport.Conn{ca, cb}[p]
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[p] = open(conn, cfg)
					took[p] = time.Since(start)
				}()
			}
			wg.Wait()
			t.Logf("established after %v and %v (%v a leg)", took[0], took[1], d)
			for p := range took {
				if errs[p] != nil {
					t.Fatalf("party %d: %v", p, errs[p])
				}
				if took[p] >= bound {
					t.Errorf("party %d established after %v, want < %v (%d legs of %v)", p, took[p], bound, legs[fam.name], d)
				}
			}
		})
	}
}
