package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/fixedpoint"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// replayPlan is LockstepCluster's wave planner written out a second time,
// the slow way, over a plaintext graph: pending names the pairs that reach
// the oracle at all (neither decided locally nor cached), within is every
// pair's bit, k the phase-1 multiplier and group the size a wave is
// topped up to. It returns the waves, each in the order the driver
// deals it — row j's pairs (i, j), i ascending, rows ascending.
func replayPlan(n, minPts, k, group int, pending, within func(pr [2]int) bool) (waves [][][2]int) {
	decided := map[[2]int]bool{}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if pr := [2]int{i, j}; !pending(pr) {
				decided[pr] = within(pr)
			}
		}
	}
	pair := func(i, j int) [2]int { return [2]int{min(i, j), max(i, j)} }
	for {
		deg := slices.Repeat([]int{1}, n)
		for pr, in := range decided {
			if in {
				deg[pr[0]]++
				deg[pr[1]]++
			}
		}
		core := func(i int) bool { return deg[i] >= minPts }
		// Components: a depth-first search over decided positive core pairs.
		comp := slices.Repeat([]int{-1}, n)
		for s := 0; s < n; s++ {
			if !core(s) || comp[s] >= 0 {
				continue
			}
			comp[s] = s
			for stack := []int{s}; len(stack) > 0; {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for v := 0; v < n; v++ {
					if v != u && core(v) && comp[v] < 0 && decided[pair(u, v)] {
						comp[v] = s
						stack = append(stack, v)
					}
				}
			}
		}
		var relevant [][2]int // (i, j) order
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if _, ok := decided[[2]int{i, j}]; !ok && !(core(i) && core(j) && comp[i] == comp[j]) {
					relevant = append(relevant, [2]int{i, j})
				}
			}
		}
		if len(relevant) == 0 {
			return waves
		}
		asks := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			if core(i) {
				continue
			}
			quota := k * (minPts - deg[i])
			for j := 0; j < n && quota > 0; j++ {
				if _, ok := decided[pair(i, j)]; j != i && !ok {
					asks[pair(i, j)] = true
					quota--
				}
			}
		}
		var wave [][2]int
		for _, pr := range relevant {
			if asks[pr] {
				wave = append(wave, pr)
			}
		}
		if len(wave) == 0 {
			joined := map[[2]int]bool{}
			for _, pr := range relevant {
				if c := pair(comp[pr[0]], comp[pr[1]]); !joined[c] {
					joined[c] = true
					wave = append(wave, pr)
				}
			}
		}
		// The top-up: further relevant pairs, in (i, j) order, up to group.
		inWave := map[[2]int]bool{}
		for _, pr := range wave {
			inWave[pr] = true
		}
		for _, pr := range relevant {
			if len(wave) >= group {
				break
			}
			if !inWave[pr] {
				wave = append(wave, pr)
			}
		}
		wave = slices.Clone(wave)
		slices.SortFunc(wave, func(a, b [2]int) int {
			if a[1] != b[1] {
				return a[1] - b[1]
			}
			return a[0] - b[0]
		})
		for _, pr := range wave {
			decided[pr] = within(pr)
		}
		waves = append(waves, wave)
	}
}

// waveChunks cuts a wave into the chunks settleSchedule deals, the slow
// way round: rows are runs of one higher endpoint, and a row joins the
// open chunk unless that would take it past bound pairs.
func waveChunks(wave [][2]int, bound int) (chunks [][][2]int) {
	var open [][2]int
	for lo := 0; lo < len(wave); {
		hi := lo
		for hi < len(wave) && wave[hi][1] == wave[lo][1] {
			hi++
		}
		if len(open) > 0 && len(open)+hi-lo > bound {
			chunks, open = append(chunks, open), nil
		}
		open = append(open, wave[lo:hi]...)
		lo = hi
	}
	if len(open) > 0 {
		chunks = append(chunks, open)
	}
	return chunks
}

// lockstepReplay is one lockstep Run replayed in plaintext over the public
// state before it: the waves the planner asks, and the pairs the run
// settles without the oracle.
type lockstepReplay struct {
	waves          [][][2]int
	bound          int
	pruned, cached [][2]int
}

// decided is the number of oracle decisions: the Run's SecureComparisons.
func (r lockstepReplay) decided() (n int) {
	for _, wave := range r.waves {
		n += len(wave)
	}
	return n
}

// chunks is the Run's chunk count, summed over its waves.
func (r lockstepReplay) chunks() (n int) {
	for _, wave := range r.waves {
		n += len(waveChunks(wave, r.bound))
	}
	return n
}

// pairDecisions is the Run's PairDecisions Ledger entry: every pair is
// settled locally, from the cache or by the oracle — or left undecided.
func (r lockstepReplay) pairDecisions() int { return len(r.pruned) + len(r.cached) + r.decided() }

// count tallies the pairs the Run settles — locally, from the cache or by
// the oracle — that pred holds for.
func (r lockstepReplay) count(pred func(pr [2]int) bool) (n int) {
	for _, prs := range append([][][2]int{r.pruned, r.cached}, r.waves...) {
		for _, pr := range prs {
			if pred(pr) {
				n++
			}
		}
	}
	return n
}

// replayRun replays a masked lockstep Run (vertical or arbitrary, whose
// chunks hold up to lockstepChunk pairs) over live — the session's records
// whole, in its live order — at cfg's Eps, MinPts, pruning and width,
// seeded from cache, which it then fills with the Run's decisions as the
// session fills its own.
func replayRun(t *testing.T, cfg Config, live [][]float64, cache *PairCache) lockstepReplay {
	t.Helper()
	cfg, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := cfg.EncodePoints(live)
	if err != nil {
		t.Fatal(err)
	}
	epsSq, err := cfg.epsSquared()
	if err != nil {
		t.Fatal(err)
	}
	bound := fixedpoint.MaxDistSqBound(cfg.MaxCoord, len(enc[0]))
	width, _ := CandidateGrid(cfg, min(epsSq, bound), bound)
	within := func(pr [2]int) bool { return fixedpoint.DistSq(enc[pr[0]], enc[pr[1]]) <= epsSq }
	r := lockstepReplay{bound: lockstepChunk}
	for j := range enc {
		for i := 0; i < j; i++ {
			pr := [2]int{i, j}
			if !spatial.Adjacent(spatial.Bucket(enc[i], width), spatial.Bucket(enc[j], width)) {
				r.pruned = append(r.pruned, pr)
			} else if _, ok := cache.m[pr]; ok {
				r.cached = append(r.cached, pr)
			}
		}
	}
	pending := func(pr [2]int) bool {
		return !slices.Contains(r.pruned, pr) && !slices.Contains(r.cached, pr)
	}
	r.waves = replayPlan(len(enc), cfg.MinPts, lockstepAsk, lockstepChunk, pending, within)
	for _, wave := range r.waves {
		for _, pr := range wave {
			cache.m[pr] = within(pr)
		}
	}
	return r
}

// planCase is one input of the planner's property test: a graph, MinPts,
// the pairs a local decider settles and the pairs a prior cache holds.
type planCase struct {
	n, minPts                int
	within, localOf, priorOf map[[2]int]bool
}

// randomPlanCase draws a planCase of fewer than maxN points: a graph of
// one of three densities, MinPts in [1, 5], and local and prior fractions
// of none, some or (for the prior) all pairs.
func randomPlanCase(rng *rand.Rand, maxN int) planCase {
	c := planCase{n: rng.Intn(maxN), minPts: 1 + rng.Intn(5),
		within: map[[2]int]bool{}, localOf: map[[2]int]bool{}, priorOf: map[[2]int]bool{}}
	density := []float64{0.05, 0.2, 0.6}[rng.Intn(3)]
	localFrac := []float64{0, 0.3, 0.9}[rng.Intn(3)]
	priorFrac := []float64{0, 0.3, 1}[rng.Intn(3)]
	for j := 1; j < c.n; j++ {
		for i := 0; i < j; i++ {
			pr := [2]int{i, j}
			c.within[pr] = rng.Float64() < density
			c.localOf[pr] = rng.Float64() < localFrac
			// The prior may hold locally decidable pairs too (a session
			// never writes one, but the precedence is the driver's).
			c.priorOf[pr] = rng.Float64() < priorFrac
		}
	}
	return c
}

// prior is the case's prior cache, with the graph's bits.
func (c planCase) prior() *PairCache {
	p := NewPairCache()
	for pr, held := range c.priorOf {
		if held {
			p.m[pr] = c.within[pr]
		}
	}
	return p
}

// pending reports whether the driver must ask pr at all.
func (c planCase) pending(pr [2]int) bool { return !c.localOf[pr] && !c.priorOf[pr] }

// wantLabels is plain DBSCAN over the whole graph.
func (c planCase) wantLabels() ([]int, int) {
	near := make([][]int, c.n)
	for i := range near {
		for j := 0; j < c.n; j++ {
			if i == j || c.within[[2]int{min(i, j), max(i, j)}] {
				near[i] = append(near[i], j)
			}
		}
	}
	return dbscan.ClusterGeneric(c.n, func(i int) []int { return near[i] }, c.minPts)
}

// replay is the planner's waves for the case at one top-up group.
func (c planCase) replay(k, group int) [][][2]int {
	return replayPlan(c.n, c.minPts, k, group, c.pending, func(pr [2]int) bool { return c.within[pr] })
}

// checkLockstepPlan runs LockstepCluster on c at width w with chunks of at
// most bound pairs and holds it to the planner's contract: the labels are
// DBSCAN's over the whole graph; every pair is offered to the local
// decider once, and one it declines that the prior holds fires onCached
// once; a pair reaches the oracle at most once, and only if neither
// settles it; the pairs it asks are the replay's, wave for wave, each
// wave dealt as checkSchedule demands; the oracle's bits land in the
// prior; and a re-run from the prior the run filled asks nothing. It
// returns the labels and the waves.
func checkLockstepPlan(t *testing.T, at string, c planCase, w, bound int, st *scheduleStats) (labels []int, k int, waves [][][2]int) {
	t.Helper()
	cmpBytes := transport.MaxFrameSize / 4 / bound
	if chunkBound(cmpBytes) != bound {
		t.Fatalf("%s: chunkBound(%d) = %d, want %d", at, cmpBytes, chunkBound(cmpBytes), bound)
	}
	var tr lockstepTrace
	prior := c.prior()
	onCached, decideLocal, batchOn := tr.hooks(c.within, c.localOf)
	labels, k, err := LockstepCluster(c.n, c.minPts, w, cmpBytes, prior, onCached, decideLocal, batchOn)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	for j := 1; j < c.n; j++ {
		for i := 0; i < j; i++ {
			pr := [2]int{i, j}
			wantCached := 0
			if !c.localOf[pr] && c.priorOf[pr] {
				wantCached = 1
			}
			if tr.local[pr] != 1 || tr.cached[pr] != wantCached {
				t.Errorf("%s: pair %v: decideLocal ×%d, onCached ×%d; want 1, %d", at, pr, tr.local[pr], tr.cached[pr], wantCached)
			}
		}
	}
	if wantLabels, wantK := c.wantLabels(); !slices.Equal(labels, wantLabels) || k != wantK {
		t.Errorf("%s: labels %v (%d clusters), DBSCAN on the graph %v (%d)", at, labels, k, wantLabels, wantK)
	}
	waves = c.replay(lockstepAsk, bound)
	asked := map[[2]int]bool{}
	for _, wave := range waves {
		for _, pr := range wave {
			asked[pr] = true
		}
	}
	for pr, times := range tr.oracle {
		if times > 1 || !c.pending(pr) || !asked[pr] {
			t.Errorf("%s: pair %v reached the oracle %d times (pending %v, the replay asks it: %v)",
				at, pr, times, c.pending(pr), asked[pr])
		}
	}
	if len(tr.oracle) != len(asked) {
		t.Errorf("%s: the oracle decided %d pairs, the replay asks %d", at, len(tr.oracle), len(asked))
	}
	for pr := range asked {
		if got, ok := prior.m[pr]; !ok || got != c.within[pr] {
			t.Errorf("%s: pair %v is (%v, held %v) in the prior after the run, want %v", at, pr, got, ok, c.within[pr])
		}
	}
	// Wave by wave: split each channel's calls at the wave boundaries the
	// replay implies and check each wave's dealing on its own.
	next := make([]int, w)
	for v, wave := range waves {
		chunks := len(waveChunks(wave, bound))
		calls := make([][][][2]int, w)
		for ch := range w {
			take := max(0, (chunks-ch+w-1)/w)
			if next[ch]+take > len(tr.calls[ch]) {
				t.Fatalf("%s: wave %d: channel %d ran %d calls in all, want %d by now", at, v, ch, len(tr.calls[ch]), next[ch]+take)
			}
			calls[ch] = tr.calls[ch][next[ch] : next[ch]+take]
			next[ch] += take
		}
		rows := make([][][2]int, c.n)
		for _, pr := range wave {
			rows[pr[1]] = append(rows[pr[1]], pr)
		}
		checkSchedule(t, fmt.Sprintf("%s wave %d", at, v), rows, func(row [][2]int) int { return len(row) }, w, bound, calls, st)
	}
	for ch := range w {
		if next[ch] != len(tr.calls[ch]) {
			t.Errorf("%s: channel %d ran %d calls, the replay's waves %d", at, ch, len(tr.calls[ch]), next[ch])
		}
	}

	// The filled cache answers everything the labels need.
	before := maps.Clone(prior.m)
	onCached, decideLocal, batchOn = (&lockstepTrace{}).hooks(c.within, c.localOf)
	relabels, reK, err := LockstepCluster(c.n, c.minPts, w, cmpBytes, prior, onCached, decideLocal,
		func(int, [][2]int) ([]bool, error) {
			return nil, fmt.Errorf("a re-run from the filled cache asked the oracle")
		})
	if err != nil {
		t.Errorf("%s: %v", at, err)
	} else if !slices.Equal(relabels, labels) || reK != k || !maps.Equal(before, prior.m) {
		t.Errorf("%s: the re-run labelled %v (%d clusters), the run %v (%d)", at, relabels, reK, labels, k)
	}
	return labels, k, waves
}

// TestLockstepPlanSeparatedClusters pins the planner's wave count where
// phase 2 alone would crawl: three clusters of 40 points, every pair within
// a cluster within Eps and none across, and every pair a candidate — as on
// the one-cell grid. Phase 2 asks one pair per pair of unjoined components,
// so without the top-up the 4800 negative cross pairs take 1408 waves (the
// replay at a group of one); filled to a chunk each, a wave before the
// last decides at least 256 pairs, and the Run takes at most
// ⌊7140/256⌋ + 1 = 28 — 19, deciding 5145 pairs, at every W, since the
// waves do not depend on it.
func TestLockstepPlanSeparatedClusters(t *testing.T) {
	const n, clusters = 120, 3
	c := planCase{n: n, minPts: 4, within: map[[2]int]bool{}, localOf: map[[2]int]bool{}, priorOf: map[[2]int]bool{}}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			c.within[[2]int{i, j}] = i%clusters == j%clusters
		}
	}
	var st scheduleStats
	for _, w := range []int{1, 4} {
		labels, k, waves := checkLockstepPlan(t, fmt.Sprintf("separated W=%d", w), c, w, lockstepChunk, &st)
		if k != clusters || slices.Contains(labels, -1) {
			t.Errorf("W=%d: %d clusters (labels %v), want %d and no noise", w, k, labels, clusters)
		}
		decided := 0
		for _, wave := range waves[:len(waves)-1] {
			if len(wave) < lockstepChunk {
				t.Errorf("W=%d: a wave before the last holds %d pairs, fewer than a chunk", w, len(wave))
			}
		}
		for _, wave := range waves {
			decided += len(wave)
		}
		if bound := n*(n-1)/2/lockstepChunk + 1; len(waves) > bound || len(waves) != 19 || decided != 5145 {
			t.Errorf("W=%d: %d waves deciding %d pairs; want 19 (at most %d) deciding 5145", w, len(waves), decided, bound)
		}
	}
}

// FuzzLockstepPlan is checkLockstepPlan over fuzzed cases: a seed for the
// graph, MinPts, local decider and prior, a width and a chunk bound small
// enough that a case takes several waves.
func FuzzLockstepPlan(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3))
	f.Add(int64(47), uint8(1), uint8(1))
	f.Add(int64(2012), uint8(4), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, w, bound uint8) {
		c := randomPlanCase(rand.New(rand.NewSource(seed)), 48)
		checkLockstepPlan(t, fmt.Sprintf("seed %d", seed), c, 1+int(w)%4, 1+int(bound)%24, &scheduleStats{})
	})
}
