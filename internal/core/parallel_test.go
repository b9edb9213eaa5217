package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/dbscan"
	"repro/internal/fixedpoint"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// The parallel equivalence harness: every protocol family must produce
// identical labels, cluster counts, full leakage Ledgers, and secure-
// comparison totals whether its settle step runs as one worker on the
// bare connection (W = 1) or across W multiplexed worker channels. The
// scheduler only settles work the walk asks for at any width, so the
// executed sub-protocol multiset — and every count-based observable — is
// invariant; this test pins that contract across W and both pruning
// modes.

func parallelCfg(engine compare.EngineKind, w int, pruning PruneMode) Config {
	cfg := testCfg(engine)
	cfg.Parallel = w
	cfg.Pruning = pruning
	return cfg
}

func TestParallelEquivalenceAcrossWorkerWidths(t *testing.T) {
	for _, pruning := range []PruneMode{PruneGrid, PruneOff} {
		for _, proto := range equivalenceProtocols(t) {
			t.Run(string(pruning)+"/"+proto.name, func(t *testing.T) {
				base := proto.run(t, parallelCfg(compare.EngineMasked, 1, pruning))
				for _, w := range []int{2, 4} {
					par := proto.run(t, parallelCfg(compare.EngineMasked, w, pruning))
					if !metrics.ExactMatch(par.ra.Labels, base.ra.Labels) {
						t.Errorf("W=%d: alice labels diverge: %v vs %v", w, par.ra.Labels, base.ra.Labels)
					}
					if !metrics.ExactMatch(par.rb.Labels, base.rb.Labels) {
						t.Errorf("W=%d: bob labels diverge: %v vs %v", w, par.rb.Labels, base.rb.Labels)
					}
					if par.ra.NumClusters != base.ra.NumClusters || par.rb.NumClusters != base.rb.NumClusters {
						t.Errorf("W=%d: cluster counts diverge: %d/%d vs %d/%d",
							w, par.ra.NumClusters, par.rb.NumClusters, base.ra.NumClusters, base.rb.NumClusters)
					}
					if par.ra.Leakage != base.ra.Leakage {
						t.Errorf("W=%d: alice ledgers diverge: %v vs %v", w, par.ra.Leakage, base.ra.Leakage)
					}
					if par.rb.Leakage != base.rb.Leakage {
						t.Errorf("W=%d: bob ledgers diverge: %v vs %v", w, par.rb.Leakage, base.rb.Leakage)
					}
					if par.ra.SecureComparisons != base.ra.SecureComparisons ||
						par.rb.SecureComparisons != base.rb.SecureComparisons {
						t.Errorf("W=%d: comparison totals diverge: %d/%d vs %d/%d",
							w, par.ra.SecureComparisons, par.rb.SecureComparisons,
							base.ra.SecureComparisons, base.rb.SecureComparisons)
					}
				}
			})
		}
	}
}

// TestParallelRequiresAgreement pins the handshake check: parties with
// different scheduler widths must fail fast, not garble frames.
func TestParallelRequiresAgreement(t *testing.T) {
	cfgA := parallelCfg(compare.EngineMasked, 2, PruneGrid)
	cfgB := parallelCfg(compare.EngineMasked, 4, PruneGrid)
	ca, cb := transport.Pipe()
	errc := make(chan error, 2)
	go func() {
		_, err := HorizontalAlice(ca, cfgA, testAlicePts)
		ca.Close()
		errc <- err
	}()
	go func() {
		_, err := HorizontalBob(cb, cfgB, testBobPts)
		cb.Close()
		errc <- err
	}()
	err1, err2 := <-errc, <-errc
	if err1 == nil && err2 == nil {
		t.Fatal("mismatched Parallel widths succeeded")
	}
}

// TestParallelRejectsSequentialBatching: the scheduler dispatches batched
// sub-protocols; the config combination is rejected up front.
func TestParallelRejectsSequentialBatching(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Parallel = 4
	cfg.Batching = BatchModeSequential
	ca, _ := transport.Pipe()
	if _, err := NewHorizontalSession(ca, cfg, RoleAlice, testAlicePts); err == nil {
		t.Fatal("Parallel>1 with sequential batching accepted")
	}
}

// TestDriversMatchPlaintextOracles is the differential test of the two
// drivers' walks against real oracles: over random integer point sets,
// MinPts values and (for the lockstep driver) widths, LockstepCluster's
// labels equal plain DBSCAN's (dbscan.ClusterInt) at every W, every pair
// is decided exactly once, and the horizontal walk — dbscan.ClusterCore
// with the peer's count added to the core test — gives the Algorithm 3/4
// simulation's labels (SimulateHorizontalPass) and queries every point at
// least once, which both horizontal settle steps rely on. (Not exactly
// once: Algorithm 4 queues a new cluster's whole seed set, so a point an
// earlier seed query left as noise or border is queried again.)
func TestDriversMatchPlaintextOracles(t *testing.T) {
	const epsSq = 8
	rng := rand.New(rand.NewSource(20120330))
	randomPts := func(n int) [][]int64 {
		pts := make([][]int64, n)
		for i := range pts {
			pts[i] = []int64{rng.Int63n(12), rng.Int63n(12)}
		}
		return pts
	}
	for trial := 0; trial < 12; trial++ {
		pts := randomPts(4 + rng.Intn(28))
		peer := randomPts(rng.Intn(20))
		for _, minPts := range []int{1, 2, 4, 7} {
			want, err := dbscan.ClusterInt(pts, epsSq, minPts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("trial %d n=%d MinPts=%d W=%d", trial, len(pts), minPts, w)
				var mu sync.Mutex // the oracle runs on concurrent chunk workers
				pairs := map[[2]int]int{}
				plain := plainBatchOracle(pts, epsSq)
				labels, k, err := LockstepCluster(len(pts), minPts, w, 1, nil, nil, nil,
					func(ch int, batch [][2]int) ([]bool, error) {
						mu.Lock()
						for _, pr := range batch {
							pairs[pr]++
						}
						mu.Unlock()
						return plain(ch, batch)
					})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !metrics.ExactMatch(labels, want.Labels) || k != want.NumClusters {
					t.Errorf("%s: lockstep labels %v (%d clusters), DBSCAN %v (%d)", name, labels, k, want.Labels, want.NumClusters)
				}
				// Lockstep DBSCAN queries every point, so every pair is decided.
				if n := len(pts); len(pairs) != n*(n-1)/2 {
					t.Errorf("%s: %d distinct pairs decided, want %d", name, len(pairs), n*(n-1)/2)
				}
				for pr, c := range pairs {
					if c != 1 {
						t.Errorf("%s: pair %v decided %d times", name, pr, c)
					}
				}
			}

			name := fmt.Sprintf("trial %d n=%d MinPts=%d", trial, len(pts), minPts)
			wantPass, wantPassK := SimulateHorizontalPass(pts, peer, epsSq, minPts)
			queried := make([]int, len(pts))
			localRQ := func(i int) []int {
				var out []int
				for j := range pts {
					if fixedpoint.DistSq(pts[i], pts[j]) <= epsSq {
						out = append(out, j)
					}
				}
				return out
			}
			passLabels, passK := dbscan.ClusterCore(len(pts), localRQ, func(i int, nbrs []int) bool {
				queried[i]++
				remote := 0
				for _, q := range peer {
					if fixedpoint.DistSq(pts[i], q) <= epsSq {
						remote++
					}
				}
				return len(nbrs)+remote >= minPts
			})
			if !metrics.ExactMatch(passLabels, wantPass) || passK != wantPassK {
				t.Errorf("%s: walk labels %v (%d clusters), simulation %v (%d)", name, passLabels, passK, wantPass, wantPassK)
			}
			for i, c := range queried {
				if c < 1 {
					t.Errorf("%s: point %d never queried", name, i)
				}
			}
		}
	}
}

// TestMuxBacklogOfHonestRuns records how deep a worker channel's receive
// queue gets in a W = 4 Run — traffic is request/reply per channel — and
// holds transport's backlog bound an order of magnitude above that mark,
// so the bound that stops a flooding peer (transport.ErrMuxBacklog) is
// nowhere near an honest one.
func TestMuxBacklogOfHonestRuns(t *testing.T) {
	for _, fam := range latencyFamilies(t) {
		if fam.name != "horizontal" && fam.name != "enhanced" && fam.name != "vertical" {
			continue
		}
		a, b := runOverLatency(t, fam, parallelCfg(compare.EngineMasked, 4, PruneGrid))
		deepest, most := 0, 0
		for _, sess := range []*Session{a, b} {
			for _, c := range sess.s.Conns {
				frames, bytes := c.(interface{ BacklogHighWater() (int, int) }).BacklogHighWater()
				deepest, most = max(deepest, frames), max(most, bytes)
			}
		}
		t.Logf("%s W=4: deepest channel backlog %d frames, %d bytes", fam.name, deepest, most)
		if deepest == 0 {
			t.Errorf("%s: no channel ever queued a frame — nothing was measured", fam.name)
		}
		if 10*deepest > transport.MaxMuxBacklogFrames || 10*most > transport.MaxMuxBacklogBytes {
			t.Errorf("%s: backlog of %d frames / %d bytes is within an order of magnitude of the bound (%d / %d)",
				fam.name, deepest, most, transport.MaxMuxBacklogFrames, transport.MaxMuxBacklogBytes)
		}
	}
}
