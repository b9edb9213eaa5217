package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/dbscan"
	"repro/internal/transport"
	"repro/internal/yao"
)

// plainBatchOracle builds a lockstep batch oracle over plaintext points.
func plainBatchOracle(pts [][]int64, epsSq int64) func(ch int, pairs [][2]int) ([]bool, error) {
	return func(_ int, pairs [][2]int) ([]bool, error) {
		out := make([]bool, len(pairs))
		for t, pr := range pairs {
			var d2 int64
			for k := range pts[pr[0]] {
				d := pts[pr[0]][k] - pts[pr[1]][k]
				d2 += d * d
			}
			out[t] = d2 <= epsSq
		}
		return out, nil
	}
}

// lockstepWidths are the widths the boundary cases run at: the one-worker
// inline schedule and a width wider than any of their chunk lists.
var lockstepWidths = []int{1, 4}

// TestLockstepMinPtsBoundary pins the self-inclusive MinPts semantics at
// the exact boundary: a 3-point clique is all-core at MinPts=3 and
// all-noise at MinPts=4.
func TestLockstepMinPtsBoundary(t *testing.T) {
	pts := [][]int64{{0, 0}, {1, 0}, {0, 1}}
	oracle := plainBatchOracle(pts, 2)
	for _, w := range lockstepWidths {
		labels, k, err := LockstepCluster(len(pts), 3, w, 1, nil, nil, nil, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if k != 1 {
			t.Fatalf("W=%d MinPts=3 on a 3-clique: got %d clusters, want 1", w, k)
		}
		for i, l := range labels {
			if l != 1 {
				t.Errorf("W=%d MinPts=3 point %d labelled %d, want 1", w, i, l)
			}
		}
		labels, k, err = LockstepCluster(len(pts), 4, w, 1, nil, nil, nil, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if k != 0 {
			t.Fatalf("W=%d MinPts=4 on a 3-clique: got %d clusters, want 0", w, k)
		}
		for i, l := range labels {
			if l != dbscan.Noise {
				t.Errorf("W=%d MinPts=4 point %d labelled %d, want noise", w, i, l)
			}
		}
	}
}

// TestLockstepAllNoise: mutually distant points never form a cluster.
func TestLockstepAllNoise(t *testing.T) {
	pts := [][]int64{{0, 0}, {100, 0}, {0, 100}, {100, 100}}
	for _, w := range lockstepWidths {
		labels, k, err := LockstepCluster(len(pts), 2, w, 1, nil, nil, nil, func(_ int, pairs [][2]int) ([]bool, error) {
			return make([]bool, len(pairs)), nil // nothing is within Eps
		})
		if err != nil {
			t.Fatal(err)
		}
		if k != 0 {
			t.Fatalf("W=%d: got %d clusters, want 0", w, k)
		}
		for i, l := range labels {
			if l != dbscan.Noise {
				t.Errorf("W=%d: point %d labelled %d, want noise", w, i, l)
			}
		}
	}
}

// TestLockstepTinyInputs: n=0 and n=1 terminate without touching the
// oracle, and bad MinPts / widths are rejected.
func TestLockstepTinyInputs(t *testing.T) {
	for _, w := range lockstepWidths {
		calls := 0
		oracle := func(_ int, pairs [][2]int) ([]bool, error) {
			calls++
			return make([]bool, len(pairs)), nil
		}
		labels, k, err := LockstepCluster(0, 2, w, 1, nil, nil, nil, oracle)
		if err != nil || len(labels) != 0 || k != 0 {
			t.Fatalf("W=%d n=0: labels=%v clusters=%d err=%v", w, labels, k, err)
		}
		labels, k, err = LockstepCluster(1, 2, w, 1, nil, nil, nil, oracle)
		if err != nil || k != 0 {
			t.Fatalf("W=%d n=1: clusters=%d err=%v", w, k, err)
		}
		if len(labels) != 1 || labels[0] != dbscan.Noise {
			t.Fatalf("W=%d n=1: labels=%v, want a single noise point", w, labels)
		}
		if calls != 0 {
			t.Errorf("W=%d: oracle consulted %d times for trivial inputs, want 0", w, calls)
		}
		// n=1 with MinPts=1: the singleton is its own cluster.
		labels, k, err = LockstepCluster(1, 1, w, 1, nil, nil, nil, oracle)
		if err != nil || k != 1 || labels[0] != 1 {
			t.Fatalf("W=%d n=1 MinPts=1: labels=%v clusters=%d err=%v", w, labels, k, err)
		}
		if _, _, err := LockstepCluster(3, 0, w, 1, nil, nil, nil, oracle); err == nil {
			t.Errorf("W=%d: MinPts=0 accepted", w)
		}
	}
	if _, _, err := LockstepCluster(3, 2, 0, 1, nil, nil, nil, plainBatchOracle(nil, 0)); err == nil {
		t.Error("width 0 accepted")
	}
}

// TestLockstepBadBatchSliceErrors: a batch oracle that returns fewer or
// more results than pairs must surface an error, never panic or mislabel.
func TestLockstepBadBatchSliceErrors(t *testing.T) {
	for _, w := range lockstepWidths {
		for _, size := range []int{0, 1, 7} { // the one chunk holds all 6 pairs
			_, _, err := LockstepCluster(4, 2, w, 1, nil, nil, nil, func(int, [][2]int) ([]bool, error) {
				return make([]bool, size), nil
			})
			if err == nil {
				t.Fatalf("W=%d: oracle slice of %d results for 6 pairs accepted", w, size)
			}
		}
		// Errors from the oracle propagate unchanged.
		boom := errors.New("boom")
		_, _, err := LockstepCluster(4, 2, w, 1, nil, nil, nil, func(int, [][2]int) ([]bool, error) {
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("W=%d: oracle error not propagated: %v", w, err)
		}
	}
}

// TestPrunedPairsNeverReachOracle: pairs the cell matrix puts in
// non-adjacent cells are settled out of range by PrunedLocalDecider —
// each accounted once — and an all-pruned matrix issues no batch.
func TestPrunedPairsNeverReachOracle(t *testing.T) {
	cells := [][]int64{{0, 0}, {4, 4}, {9, 9}}
	for _, w := range lockstepWidths {
		pruned := map[[2]int]int{}
		decide := PrunedLocalDecider(cells, func(pr [2]int) { pruned[pr]++ })
		labels, k, err := LockstepCluster(len(cells), 2, w, 1, nil, nil, decide, func(int, [][2]int) ([]bool, error) {
			return nil, fmt.Errorf("oracle must not run")
		})
		if err != nil {
			t.Fatal(err)
		}
		if k != 0 {
			t.Errorf("W=%d: %d clusters from mutually pruned points (labels %v)", w, k, labels)
		}
		if len(pruned) != 3 {
			t.Errorf("W=%d: %d distinct pruned pairs accounted, want 3", w, len(pruned))
		}
		for pr, c := range pruned {
			if c != 1 {
				t.Errorf("W=%d: pruned pair %v accounted %d times", w, pr, c)
			}
		}
	}
	if PrunedLocalDecider(nil, nil) != nil {
		t.Error("pruning off must yield a nil decider")
	}
}

// TestChunkBound pins the one sizing rule: the cap where frames are small,
// a quarter of the frame limit where they are not, never below one pair.
func TestChunkBound(t *testing.T) {
	quarter := transport.MaxFrameSize / 4
	for _, tc := range []struct{ cmpBytes, want int }{
		{0, lockstepChunk},
		{1, lockstepChunk},
		{quarter / lockstepChunk, lockstepChunk},
		{quarter/lockstepChunk + 1, lockstepChunk - 1},
		{quarter / 17, 17},
		{quarter, 1},
		{quarter + 1, 1},
		{4 * transport.MaxFrameSize, 1},
	} {
		if got := chunkBound(tc.cmpBytes); got != tc.want {
			t.Errorf("chunkBound(%d) = %d, want %d", tc.cmpBytes, got, tc.want)
		}
	}
}

// waveLockstepCluster is the driver this repository ran up to handshake
// v10, kept verbatim as a test oracle: DBSCAN's own expansion loop, one
// batch per neighbourhood, up to w neighbourhoods per barrier-separated
// wave. LockstepCluster must settle the same pairs the same way — each
// through the same hook, once — and return the same labels.
func waveLockstepCluster(n, minPts, w int,
	prior *PairCache, onCached func(pr [2]int, in bool),
	decideLocal func(pr [2]int) (value, decided bool),
	batchOn func(ch int, pairs [][2]int) ([]bool, error)) ([]int, int, error) {
	cache := make(map[[2]int]bool)
	claimed := make(map[[2]int]bool)
	buildBatch := func(p int) [][2]int {
		var live [][2]int
		for j := 0; j < n; j++ {
			if j == p {
				continue
			}
			a, b := p, j
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if _, ok := cache[key]; ok || claimed[key] {
				continue
			}
			if decideLocal != nil {
				if v, ok := decideLocal(key); ok {
					cache[key] = v
					continue
				}
			}
			if prior != nil {
				if v, ok := prior.m[key]; ok {
					cache[key] = v
					if onCached != nil {
						onCached(key, v)
					}
					continue
				}
			}
			claimed[key] = true
			live = append(live, key)
		}
		return live
	}
	wave := func(points []int) error {
		batches := make([][][2]int, len(points))
		for t, p := range points {
			batches[t] = buildBatch(p)
		}
		results := make([][]bool, len(points))
		if err := runWave(len(points), func(t int) error {
			if len(batches[t]) == 0 {
				return nil
			}
			res, err := batchOn(t, batches[t])
			if err != nil {
				return err
			}
			results[t] = res
			return nil
		}); err != nil {
			return err
		}
		for t, batch := range batches {
			for u, key := range batch {
				cache[key] = results[t][u]
				if prior != nil {
					prior.m[key] = results[t][u]
				}
				delete(claimed, key)
			}
		}
		return nil
	}
	neighborsOf := func(i int) []int {
		out := []int{}
		for j := 0; j < n; j++ {
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			if j == i || cache[[2]int{a, b}] {
				out = append(out, j)
			}
		}
		return out
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = dbscan.Unclassified
	}
	clusterID := 0
	for i := 0; i < n; i++ {
		if labels[i] != dbscan.Unclassified {
			continue
		}
		if err := wave([]int{i}); err != nil {
			return nil, 0, err
		}
		seeds := neighborsOf(i)
		if len(seeds) < minPts {
			labels[i] = dbscan.Noise
			continue
		}
		clusterID++
		for _, sd := range seeds {
			labels[sd] = clusterID
		}
		queue := make([]int, 0, len(seeds))
		for _, sd := range seeds {
			if sd != i {
				queue = append(queue, sd)
			}
		}
		for len(queue) > 0 {
			step := min(w, len(queue))
			items := queue[:step:step]
			queue = queue[step:]
			if err := wave(items); err != nil {
				return nil, 0, err
			}
			for _, cur := range items {
				result := neighborsOf(cur)
				if len(result) < minPts {
					continue
				}
				for _, r := range result {
					if labels[r] == dbscan.Unclassified || labels[r] == dbscan.Noise {
						if labels[r] == dbscan.Unclassified {
							queue = append(queue, r)
						}
						labels[r] = clusterID
					}
				}
			}
		}
	}
	return labels, clusterID, nil
}

// lockstepTrace records what one driver run did with its hooks.
type lockstepTrace struct {
	mu     sync.Mutex
	local  map[[2]int]int     // decideLocal calls per pair
	cached map[[2]int]int     // onCached calls per pair
	oracle map[[2]int]int     // times a pair reached batchOn
	calls  map[int][][][2]int // per channel: its batchOn calls, in order
}

// hooks builds the driver hooks over a ground-truth graph: localOf pairs
// are settled by decideLocal (with the graph's bit), everything else that
// reaches batchOn is answered from the graph.
func (tr *lockstepTrace) hooks(within, localOf map[[2]int]bool) (
	onCached func([2]int, bool), decideLocal func([2]int) (bool, bool), batchOn func(int, [][2]int) ([]bool, error)) {
	tr.local, tr.cached, tr.oracle = map[[2]int]int{}, map[[2]int]int{}, map[[2]int]int{}
	tr.calls = map[int][][][2]int{}
	onCached = func(pr [2]int, in bool) {
		if in != within[pr] {
			panic(fmt.Sprintf("onCached(%v) carries %v, the graph says %v", pr, in, within[pr]))
		}
		tr.cached[pr]++
	}
	decideLocal = func(pr [2]int) (bool, bool) {
		tr.local[pr]++
		return within[pr], localOf[pr]
	}
	batchOn = func(ch int, pairs [][2]int) ([]bool, error) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.calls[ch] = append(tr.calls[ch], append([][2]int{}, pairs...))
		out := make([]bool, len(pairs))
		for u, pr := range pairs {
			tr.oracle[pr]++
			out[u] = within[pr]
		}
		return out, nil
	}
	return onCached, decideLocal, batchOn
}

// TestLockstepDecidesEveryPairOnce is the driver's property test: over
// random graphs × random prior caches × random local deciders × widths ×
// chunk bounds, every pair is offered to decideLocal once; a pair it
// declines and the prior holds fires onCached once, with the cached bit,
// and never reaches the oracle; every other pair reaches batchOn exactly
// once, in exactly one chunk; chunks hold whole rows, in row order, packed
// greedily under the bound; channel t runs chunks t, t+W, … in order; the
// oracle's results land in the prior; and the labels are plain DBSCAN's on
// the same graph and the old wave driver's on the same inputs — which also
// settled exactly the same pairs through exactly the same hooks.
func TestLockstepDecidesEveryPairOnce(t *testing.T) {
	quarter := transport.MaxFrameSize / 4
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(36)
		if trial < 3 {
			n = trial // the degenerate sizes, always
		}
		minPts := 1 + rng.Intn(5)
		density := []float64{0.05, 0.2, 0.6}[rng.Intn(3)]
		localFrac := []float64{0, 0.3, 0.9}[rng.Intn(3)]
		priorFrac := []float64{0, 0.3, 1}[rng.Intn(3)]
		within, localOf, priorOf := map[[2]int]bool{}, map[[2]int]bool{}, map[[2]int]bool{}
		var all [][2]int
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				pr := [2]int{i, j}
				all = append(all, pr)
				within[pr] = rng.Float64() < density
				localOf[pr] = rng.Float64() < localFrac
				// The prior may hold locally decidable pairs too (a session
				// never writes one, but the precedence is the driver's).
				priorOf[pr] = rng.Float64() < priorFrac
			}
		}
		near := make([][]int, n)
		for i := range near {
			for j := 0; j < n; j++ {
				if i == j || within[[2]int{min(i, j), max(i, j)}] {
					near[i] = append(near[i], j)
				}
			}
		}
		wantLabels, wantK := dbscan.ClusterGeneric(n, func(i int) []int { return near[i] }, minPts)
		seedPrior := func() *PairCache {
			if priorFrac == 0 {
				return nil
			}
			c := NewPairCache()
			for pr, held := range priorOf {
				if held {
					c.m[pr] = within[pr]
				}
			}
			return c
		}

		for _, w := range []int{1, 2, 4, 7} {
			for _, bound := range []int{1, 3, 17, lockstepChunk} {
				name := fmt.Sprintf("trial %d n=%d MinPts=%d W=%d bound=%d", trial, n, minPts, w, bound)
				cmpBytes := quarter / bound
				if chunkBound(cmpBytes) != bound {
					t.Fatalf("%s: chunkBound(%d) = %d", name, cmpBytes, chunkBound(cmpBytes))
				}
				var tr, old lockstepTrace
				prior := seedPrior()
				onCached, decideLocal, batchOn := tr.hooks(within, localOf)
				labels, k, err := LockstepCluster(n, minPts, w, cmpBytes, prior, onCached, decideLocal, batchOn)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				oldPrior := seedPrior()
				onCached, decideLocal, batchOn = old.hooks(within, localOf)
				oldLabels, oldK, err := waveLockstepCluster(n, minPts, w, oldPrior, onCached, decideLocal, batchOn)
				if err != nil {
					t.Fatalf("%s: wave driver: %v", name, err)
				}
				if !slices.Equal(labels, wantLabels) || k != wantK {
					t.Errorf("%s: labels %v (%d clusters), DBSCAN on the graph %v (%d)", name, labels, k, wantLabels, wantK)
				}
				if !slices.Equal(labels, oldLabels) || k != oldK {
					t.Errorf("%s: labels %v (%d clusters), the wave driver %v (%d)", name, labels, k, oldLabels, oldK)
				}

				// Every pair through exactly one hook, once; the wave driver
				// agrees pair by pair.
				var undecided [][2]int
				for _, pr := range all {
					wantCached, wantOracle := 0, 0
					switch {
					case localOf[pr]:
					case prior != nil && priorOf[pr]:
						wantCached = 1
					default:
						wantOracle = 1
						undecided = append(undecided, pr)
					}
					if tr.local[pr] != 1 || tr.cached[pr] != wantCached || tr.oracle[pr] != wantOracle {
						t.Errorf("%s: pair %v: decideLocal ×%d, onCached ×%d, oracle ×%d; want 1, %d, %d",
							name, pr, tr.local[pr], tr.cached[pr], tr.oracle[pr], wantCached, wantOracle)
					}
					if old.cached[pr] != wantCached || old.oracle[pr] != wantOracle {
						t.Errorf("%s: pair %v: the wave driver cached ×%d, oracle ×%d; want %d, %d",
							name, pr, old.cached[pr], old.oracle[pr], wantCached, wantOracle)
					}
					if prior != nil && !localOf[pr] {
						if got, ok := prior.m[pr]; !ok || got != within[pr] {
							t.Errorf("%s: pair %v is (%v, held %v) in the prior after the run, want %v", name, pr, got, ok, within[pr])
						}
					}
				}
				if prior != nil && !maps.Equal(prior.m, oldPrior.m) {
					t.Errorf("%s: the run left a prior of %d pairs, the wave driver one of %d", name, prior.Len(), oldPrior.Len())
				}

				// The schedule. Channel t ran chunks t, t+W, …: read them
				// back in chunk order.
				total := 0
				for ch, calls := range tr.calls {
					if ch < 0 || ch >= w {
						t.Fatalf("%s: batchOn on channel %d", name, ch)
					}
					total += len(calls)
				}
				var chunks [][][2]int
				for c := 0; c < total; c++ {
					if calls := tr.calls[c%w]; c/w < len(calls) {
						chunks = append(chunks, calls[c/w])
					} else {
						t.Fatalf("%s: %d chunks, but channel %d ran only %d — not dealt round-robin", name, total, c%w, len(calls))
					}
				}
				// all is in (row, column) order, and so is undecided: the
				// chunks concatenate to exactly it.
				if got := slices.Concat(chunks...); !slices.Equal(got, undecided) {
					t.Errorf("%s: chunks hold %v, want the undecided pairs in row order %v", name, got, undecided)
				}
				for c, chunk := range chunks {
					if len(chunk) == 0 {
						t.Fatalf("%s: chunk %d is empty", name, c)
					}
					first, last := chunk[0][1], chunk[len(chunk)-1][1]
					if len(chunk) > bound && first != last {
						t.Errorf("%s: chunk %d holds %d pairs of rows %d–%d, over the bound", name, c, len(chunk), first, last)
					}
					if c+1 == len(chunks) {
						continue
					}
					next := chunks[c+1]
					if next[0][1] == last {
						t.Errorf("%s: row %d is split across chunks %d and %d", name, last, c, c+1)
					}
					nextRow := 0
					for _, pr := range next {
						if pr[1] == next[0][1] {
							nextRow++
						}
					}
					if len(chunk)+nextRow <= bound {
						t.Errorf("%s: chunk %d closed at %d pairs though row %d (%d pairs) fits under %d", name, c, len(chunk), next[0][1], nextRow, bound)
					}
				}
			}
		}
	}
}

// packRows is the schedule's chunk count for rows of the given sizes,
// written the slow way round: count pairs row by row.
func packRows(rows []int, bound int) (chunks int) {
	open := 0
	for _, r := range rows {
		if r == 0 {
			continue
		}
		if open > 0 && open+r > bound {
			chunks++
			open = 0
		}
		open += r
	}
	if open > 0 {
		chunks++
	}
	return chunks
}

// TestLockstepRunFramePin pins what the schedule puts on the wire: a cold
// vertical Run is the run op plus three vdp.cmp frames per chunk, at W = 1
// and W = 4 alike, and a Run after Append(2) — two new rows, everything
// else served by the pair cache — is one chunk.
func TestLockstepRunFramePin(t *testing.T) {
	const n = 60
	colA, colB := make([][]float64, n), make([][]float64, n)
	for i := range colA {
		colA[i], colB[i] = []float64{float64(i % 8)}, []float64{float64(i / 8)}
	}
	rows := make([]int, n)
	for j := range rows {
		rows[j] = j // pruning off: row j is every (i, j), i < j
	}
	wantCold := packRows(rows, lockstepChunk)
	if wantCold <= 4 {
		t.Fatalf("the fixture is %d chunks: it does not fill four channels", wantCold)
	}
	for _, w := range []int{1, 4} {
		cfg := parallelCfg(compare.EngineMasked, w, PruneOff)
		ca, cb := transport.Pipe()
		ma := transport.NewMeter(ca)
		var cold, warm int64
		var coldCmps, warmCmps int64
		err := transport.RunPair(ma, cb,
			func(transport.Conn) error {
				sess, err := NewVerticalSession(ma, cfg, RoleAlice, colA)
				if err != nil {
					return err
				}
				before := ma.Stats().Messages()
				res, err := sess.Run()
				if err != nil {
					return err
				}
				cold, coldCmps = ma.Stats().Messages()-before, res.SecureComparisons
				if err := sess.Append([][]float64{{3}, {4}}); err != nil {
					return err
				}
				before = ma.Stats().Messages()
				if res, err = sess.Run(); err != nil {
					return err
				}
				warm, warmCmps = ma.Stats().Messages()-before, res.SecureComparisons
				return sess.Close()
			},
			func(c transport.Conn) error {
				sess, err := NewVerticalSession(c, cfg, RoleBob, colB)
				if err != nil {
					return err
				}
				sess.SetAppendSource(func(AppendRequest) ([][]float64, error) { return [][]float64{{3}, {5}}, nil })
				for run := 0; run < 2; run++ {
					if _, err := sess.Run(); err != nil {
						return err
					}
				}
				if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
					return fmt.Errorf("serving side after the close op: %v", err)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if coldCmps != n*(n-1)/2 || cold != int64(1+3*wantCold) {
			t.Errorf("W=%d: cold Run: %d comparisons in %d frames, want %d in 1 + 3×%d", w, coldCmps, cold, n*(n-1)/2, wantCold)
		}
		if warmCmps != n+n+1 || warm != 1+3 {
			t.Errorf("W=%d: Run after Append(2): %d comparisons in %d frames, want %d in 1 + 3 (one chunk)", w, warmCmps, warm, n+n+1)
		}
	}
}

// TestYMPPChunksStayUnderFrameLimit: under YMPP a comparison's round 2
// carries its whole domain, so the chunk rule, not the cap, sizes a chunk.
// Three steps. A real YMPP session shows compare's FrameBytes is what the
// rule takes it for — an upper bound on what a comparison adds to its
// chunk's largest frame, and not a loose one. Then the real driver runs
// frames of exactly that size, for an engine whose domain makes the
// undecided pairs of one run 18 MB of round 2, over a Pipe — which since
// this PR refuses what TCP would: every chunk passes and none is over a
// quarter of the limit. The same pairs as the single chunk the cap alone
// would have made are refused with the typed error. (The second step
// stands in for a real session because YMPP's cost is proportional to its
// bytes: 16 MB of residues is ≈ 10 s of RSA decryptions.)
func TestYMPPChunksStayUnderFrameLimit(t *testing.T) {
	cfg := parallelCfg(compare.EngineYMPP, 1, PruneOff)
	attrs := [][]float64{{0}, {1}, {2}, {3}, {5}, {7}}
	ca, cb := transport.Pipe()
	sizes := &sentTap{Conn: ca}
	var cmpBytes, peerBytes int
	var res *Result
	err := transport.RunPair(sizes, cb,
		func(transport.Conn) error {
			sess, err := NewVerticalSession(sizes, cfg, RoleAlice, attrs)
			if err != nil {
				return err
			}
			engA, _, err := sess.s.DistEngines()
			if err != nil {
				return err
			}
			cmpBytes = engA.FrameBytes()
			sizes.sent = nil
			if res, err = sess.Run(); err != nil {
				return err
			}
			return sess.Close()
		},
		func(c transport.Conn) error {
			sess, err := NewVerticalSession(c, cfg, RoleBob, attrs)
			if err != nil {
				return err
			}
			_, engB, err := sess.s.DistEngines()
			if err != nil {
				return err
			}
			peerBytes = engB.FrameBytes()
			if _, err = sess.Run(); err != nil {
				return err
			}
			if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
				return fmt.Errorf("serving side after the close op: %v", err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if cmpBytes != peerBytes {
		t.Fatalf("the two ends of one edge size their chunks by %d and %d bytes", cmpBytes, peerBytes)
	}
	pairs := len(attrs) * (len(attrs) - 1) / 2
	if int(res.SecureComparisons) != pairs || chunkBound(cmpBytes) < pairs {
		t.Fatalf("%d comparisons at %d bytes each: want the %d pairs in one chunk", res.SecureComparisons, cmpBytes, pairs)
	}
	largest := 0
	for _, frame := range sizes.sent {
		largest = max(largest, len(frame))
	}
	if largest > pairs*cmpBytes || 2*largest < pairs*cmpBytes {
		t.Errorf("round 2 of %d comparisons is %d bytes, FrameBytes says at most %d each (%d)", pairs, largest, cmpBytes, pairs*cmpBytes)
	}

	// The same engine over a domain of 2^12: one comparison is 78 kB of
	// residues, a row of the fixture at most 21 of them.
	rsa, err := yao.GenerateRSAKey(rand.New(rand.NewSource(1)), 256)
	if err != nil {
		t.Fatal(err)
	}
	wide := (&compare.YMPPBob{Pub: &rsa.RSAPublicKey, Max: 1 << 12}).FrameBytes()
	bound := chunkBound(wide)
	const n = 22 // 231 pairs
	if total := n * (n - 1) / 2 * wide; bound >= lockstepChunk || bound < n || total <= transport.MaxFrameSize {
		t.Fatalf("fixture: %d bytes per comparison, bound %d, %d bytes in all — want the frame rule to bind and one chunk to be over the limit", wide, bound, total)
	}
	pa, pb := transport.Pipe()
	got := make(chan int, n*n)
	go func() {
		defer close(got)
		for {
			b, err := pb.Recv()
			if err != nil {
				return
			}
			got <- len(b)
		}
	}()
	var all [][2]int
	_, _, err = LockstepCluster(n, 2, 1, wide, nil, nil, nil, func(_ int, pairs [][2]int) ([]bool, error) {
		all = append(all, pairs...)
		return make([]bool, len(pairs)), pa.Send(make([]byte, len(pairs)*wide))
	})
	if err != nil {
		t.Fatalf("a chunk of the schedule was refused: %v", err)
	}
	err = pa.Send(make([]byte, len(all)*wide))
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Errorf("all %d pairs as one %d-byte frame: Send = %v, want ErrFrameTooLarge", len(all), len(all)*wide, err)
	}
	pa.Close()
	frames := 0
	for size := range got {
		frames++
		if size > transport.MaxFrameSize/4 {
			t.Errorf("a chunk frame of %d bytes is over a quarter of the limit", size)
		}
	}
	if frames < 2 {
		t.Errorf("%d pairs travelled in %d frame(s)", len(all), frames)
	}
}
