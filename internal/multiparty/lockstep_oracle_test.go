package multiparty

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// The ring leg of the lockstep differential (core's lives in
// internal/core/lockstep_oracle_test.go): the same ring session — a cold
// Run, then a re-Run the cross-run cache answers whole — runs once on the
// chunk circulation at every valid batching × packing (and W ∈ {1, 4}
// where batched) and once on the per-pair oracle it replaced, pairLE
// below: one complete circulation per pair, as sequential batching ran
// up to ring token v10. Kept verbatim, and driven by core.LockstepCluster
// over the session state through PerPairOracle (core's, copied: test
// files do not cross packages). Labels, PairDecisions, CachedPairs and
// IndexCellCoords must come out equal on every party at every Run.

// PerPairOracle adapts a one-pair oracle to LockstepCluster's batch hook:
// a chunk is decided one complete sub-protocol at a time, in chunk order.
func PerPairOracle(pairLE func(i, j int) (bool, error)) func(ch int, pairs [][2]int) ([]bool, error) {
	return func(_ int, pairs [][2]int) ([]bool, error) {
		out := make([]bool, len(pairs))
		for t, pr := range pairs {
			v, err := pairLE(pr[0], pr[1])
			if err != nil {
				return nil, err
			}
			out[t] = v
		}
		return out, nil
	}
}

// pairLE is the joint within-Eps oracle: ring accumulation, masked
// decryption, coordinator↔last comparison, ring broadcast.
func (st *state) pairLE(i, j int) (bool, error) {
	st.pairCount.Add(1)
	prev, next, random := st.prevs[0], st.nexts[0], st.streams[0]
	s := st.partial(i, j)

	if st.isCoordinator() {
		ct, err := st.paiKey.Encrypt(random, big.NewInt(s))
		if err != nil {
			return false, err
		}
		st.ctsUp.Add(1)
		if err := transport.SendMsg(next, transport.NewBuilder().PutBig(ct)); err != nil {
			return false, fmt.Errorf("multiparty: ring send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return false, fmt.Errorf("multiparty: ring return: %w", err)
		}
		acc := r.Big()
		if r.Err() != nil {
			return false, r.Err()
		}
		t, err := st.paiKey.DecryptSigned(acc)
		if err != nil {
			return false, err
		}
		if t.Sign() < 0 || t.Int64() >= st.bound+st.shareV {
			return false, fmt.Errorf("multiparty: masked sum %v outside [0,%d)", t, st.bound+st.shareV)
		}
		// t = dist² + v ≤ Eps² + v ⟺ dist² ≤ Eps².
		in, err := lessEqOne(prev, st.cmpA[0], t.Int64())
		if err != nil {
			return false, err
		}
		// Broadcast the decision around the ring.
		if err := transport.SendMsg(next, transport.NewBuilder().PutBool(in)); err != nil {
			return false, err
		}
		return in, nil
	}

	// Non-coordinator: accumulate and forward.
	r, err := transport.RecvMsg(prev)
	if err != nil {
		return false, fmt.Errorf("multiparty: ring recv: %w", err)
	}
	acc := r.Big()
	if r.Err() != nil {
		return false, r.Err()
	}
	add := s
	var v int64
	if st.isLast() {
		mask, err := rand.Int(random, big.NewInt(st.shareV))
		if err != nil {
			return false, err
		}
		v = mask.Int64()
		add += v
	}
	term, err := st.paiPub.Encrypt(random, big.NewInt(add))
	if err != nil {
		return false, err
	}
	acc, err = st.paiPub.Add(acc, term)
	if err != nil {
		return false, err
	}
	st.ctsUp.Add(1)
	if err := transport.SendMsg(next, transport.NewBuilder().PutBig(acc)); err != nil {
		return false, fmt.Errorf("multiparty: ring forward: %w", err)
	}
	if st.isLast() {
		// Participate in the comparison with right side Eps² + v.
		if _, err := lessEqOne(next, st.cmpB[0], st.epsSq+v); err != nil {
			return false, err
		}
	}
	// Receive the broadcast decision; forward unless the next hop is the
	// coordinator (who originated it).
	br, err := transport.RecvMsg(prev)
	if err != nil {
		return false, fmt.Errorf("multiparty: broadcast recv: %w", err)
	}
	in := br.Bool()
	if br.Err() != nil {
		return false, br.Err()
	}
	if !st.isLast() {
		if err := transport.SendMsg(next, transport.NewBuilder().PutBool(in)); err != nil {
			return false, err
		}
	}
	return in, nil
}

// oracleRingRecords are the differential's shared records (3-D, so a
// 3-party ring owns one column each).
var oracleRingRecords = [][]float64{
	{1, 1, 1}, {2, 1, 1}, {9, 9, 9}, {9, 8, 9},
	{1, 2, 1}, {8, 9, 8}, {5, 5, 5},
	{2, 2, 2}, {9, 9, 8}, {8, 8, 6}, {1, 1, 2},
}

// runRingLifecycle runs k concurrent RingSessions twice — cold, then the
// re-Run — and returns every party's Results; oracle runs each Run on
// pairLE.
func runRingLifecycle(t *testing.T, cfg Config, k int, oracle bool) [][]*Result {
	t.Helper()
	parties := NewLocalRing(k)
	out := make([][]*Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer parties[p].Next.Close()
			defer parties[p].Prev.Close()
			rs, err := NewRingSession(parties[p], cfg, splitColumns(oracleRingRecords, k)[p])
			if err != nil {
				errs[p] = err
				return
			}
			run := rs.Run
			if oracle {
				run = func() (res *Result, err error) {
					err = rs.guard.Do(func() (bool, error) {
						res, err = rs.run(PerPairOracle(rs.st.pairLE))
						return true, err
					})
					return res, err
				}
			}
			for i := range 2 {
				res, err := run()
				if err != nil {
					errs[p] = fmt.Errorf("party %d run %d: %w", p, i, err)
					return
				}
				out[p] = append(out[p], res)
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestLockstepMatchesPerPairOracle(t *testing.T) {
	type mode struct {
		batching core.BatchMode
		packing  core.PackMode
		w        int
	}
	modes := []mode{{core.BatchModeSequential, core.PackOff, 1}}
	for _, packing := range []core.PackMode{core.PackOff, core.PackSlots, core.PackFull} {
		for _, w := range []int{1, 4} {
			modes = append(modes, mode{core.BatchModeBatched, packing, w})
		}
	}
	// The candidate-set inputs: the Eps grid, pruning off, and the
	// geometric fallback — grid pruning with Eps² beyond the dist² bound of
	// the three-column records (3·15² = 675) — the last two on the one-cell
	// grid (core.CandidateGrid).
	// Subtests name the input by sub; the Eps grid's keep their
	// unsegmented names.
	inputs := []struct {
		sub     string
		pruning core.PruneMode
		eps     float64
	}{{"", core.PruneGrid, 3}, {"off/", core.PruneOff, 3}, {"fallback/", core.PruneGrid, 30}}
	for _, k := range []int{2, 3} {
		for _, in := range inputs {
			oracleCfg := testCfg(compare.EngineMasked)
			oracleCfg.Batching, oracleCfg.Packing = core.BatchModeSequential, core.PackOff
			oracleCfg.Pruning, oracleCfg.Eps = in.pruning, in.eps
			want := runRingLifecycle(t, oracleCfg, k, true)
			for _, m := range modes {
				t.Run(fmt.Sprintf("ring/k=%d/%s%s/packing=%s/W=%d", k, in.sub, m.batching, m.packing, m.w), func(t *testing.T) {
					cfg := testCfg(compare.EngineMasked)
					cfg.Batching, cfg.Packing, cfg.Parallel = m.batching, m.packing, m.w
					cfg.Pruning, cfg.Eps = in.pruning, in.eps
					got := runRingLifecycle(t, cfg, k, false)
					for p := range got {
						if len(got[p]) != len(want[p]) || len(got[p]) != 2 {
							t.Fatalf("party %d: %d runs on the chunk circulation, %d per pair, want 2", p, len(got[p]), len(want[p]))
						}
						for stage := range got[p] {
							g, w := got[p][stage], want[p][stage]
							at := fmt.Sprintf("party %d stage %d", p, stage)
							if !metrics.ExactMatch(g.Labels, w.Labels) || g.NumClusters != w.NumClusters {
								t.Errorf("%s: labels %v (%d clusters), per pair %v (%d)", at, g.Labels, g.NumClusters, w.Labels, w.NumClusters)
							}
							if g.PairDecisions != w.PairDecisions || g.CachedPairs != w.CachedPairs || g.IndexCellCoords != w.IndexCellCoords {
								t.Errorf("%s: %d pair decisions, %d cached, %d index coordinates; per pair %d, %d, %d", at,
									g.PairDecisions, g.CachedPairs, g.IndexCellCoords, w.PairDecisions, w.CachedPairs, w.IndexCellCoords)
							}
						}
						// The re-Run decides no pair over the wire: it sends no
						// ciphertext, and the cache answers every pair the grid
						// does not prune — on the one-cell grid, every pair.
						cold, re := got[p][0], got[p][1]
						cached := re.CachedPairs > 0
						if in.sub != "" {
							cached = re.CachedPairs == re.PairDecisions
						}
						if re.CiphertextsSent != 0 || !cached || re.PairDecisions != cold.PairDecisions {
							t.Errorf("party %d re-Run: %d ciphertexts sent, %d of %d pair decisions cached (cold Run %d); want none sent, the cache answering",
								p, re.CiphertextsSent, re.CachedPairs, re.PairDecisions, cold.PairDecisions)
						}
					}
				})
			}
		}
	}
}

// lessEqOne decides one comparison on an engine of either side: a batch
// of one, three frames.
func lessEqOne(conn transport.Conn, eng interface {
	BatchLessEq(transport.Conn, []int64) ([]bool, error)
}, v int64) (bool, error) {
	bits, err := eng.BatchLessEq(conn, []int64{v})
	if err == nil && len(bits) != 1 {
		err = fmt.Errorf("multiparty: %d decisions from a batch of one", len(bits))
	}
	if err != nil {
		return false, err
	}
	return bits[0], nil
}
