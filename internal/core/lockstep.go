package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dbscan"
	"repro/internal/transport"
)

// PairCache is a session's cross-run pair-decision cache: pairwise
// within-Eps bits are immutable once decided (appends only add points, so
// a decided pair's distance never changes), and in the lockstep families
// every participant learns every decided bit, so all sides hold identical
// caches and the seeded driver below stays in lock step by construction.
// A PairCache is confined to its session's serialized Run calls — the
// driver reads and writes it from the scheduling goroutine only.
//
// The cache holds oracle results only. A pair the grid index settles
// (PrunedLocalDecider) is never written: it is free to re-derive, so
// every run decides it locally again and it never counts towards
// CachedComparisons / CachedPairs. Its PairDecisions Ledger entry is
// recorded either way, so Ledgers do not depend on what is cached.
type PairCache struct {
	m map[[2]int]bool
}

// NewPairCache returns an empty cross-run pair cache.
func NewPairCache() *PairCache { return &PairCache{m: make(map[[2]int]bool)} }

// Len reports the number of cached pair decisions.
func (c *PairCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.m)
}

// Expire invalidates and remaps the cache after the n oldest records
// leave a sliding window: every pair touching an expired record is
// dropped — its bit describes a point that no longer exists — and the
// surviving pairs, whose distances are immutable, shift down onto the
// compacted indices. Every lockstep participant applies the identical
// remap, so all sides' caches stay equal and the seeded drivers remain
// in lock step across expiries.
func (c *PairCache) Expire(n int) {
	if c == nil || n == 0 {
		return
	}
	next := make(map[[2]int]bool, len(c.m))
	for k, v := range c.m {
		if k[0] < n || k[1] < n {
			continue
		}
		next[[2]int{k[0] - n, k[1] - n}] = v
	}
	c.m = next
}

// Retract invalidates and remaps the cache after a point-level
// retraction: ids (strictly ascending, in the current live numbering)
// name the records deleted from the middle of the window. Every pair
// touching a retracted record is dropped, and the surviving pairs —
// whose distances are immutable — shift down by their rank onto the
// compacted indices. Like Expire, every lockstep participant applies
// the identical remap, so all sides' caches stay equal and the seeded
// drivers remain in lock step across retractions.
func (c *PairCache) Retract(ids []int) {
	if c == nil || len(ids) == 0 {
		return
	}
	remap := retractRemap(ids)
	next := make(map[[2]int]bool, len(c.m))
	for k, v := range c.m {
		i, okI := remap(k[0])
		j, okJ := remap(k[1])
		if !okI || !okJ {
			continue
		}
		next[[2]int{i, j}] = v
	}
	c.m = next
}

// retractRemap builds the survivor renumbering for a sorted retraction
// id list: retracted indices map to (0, false); a survivor maps to
// itself minus the number of retracted indices below it.
func retractRemap(ids []int) func(int) (int, bool) {
	return func(i int) (int, bool) {
		lo, hi := 0, len(ids)
		for lo < hi {
			mid := (lo + hi) / 2
			if ids[mid] < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(ids) && ids[lo] == i {
			return 0, false
		}
		return i - lo, true
	}
}

// lockstepChunk caps a chunk of LockstepCluster's schedule, in pair
// decisions. The cap trades round trips against idle worker channels: a
// chunk costs its engine's fixed frame count whatever it holds, so fewer,
// larger chunks mean fewer round trips, while a run needs at least W
// chunks to keep W channels busy and a few more per channel for one
// chunk's arithmetic to hide the next one's wire wait. It is measured, not
// tuned: the bench `wan` workload (2 661 decisions, W = 4, 10 ms one way)
// reads the same run time within its noise from 128 to 1024 and the
// fewest wire bytes at 256 and 512 (CHANGES.md, PR 22); 256 is the smaller
// of those, so that an input a quarter of `wan`'s still has a chunk for
// every channel.
const lockstepChunk = 256

// chunkBound is the one sizing rule of settleSchedule: a chunk holds at most
// lockstepChunk decisions, and fewer when cmpBytes — what one decision
// adds to the largest frame of its chunk (compare.Alice.FrameBytes; under
// YMPP the whole comparison domain in residues) — would take that frame
// past a quarter of transport.MaxFrameSize. Never below one: a row is
// never split, so a single row above the bound travels as one frame,
// which is the limit the per-neighbourhood batches always had.
func chunkBound(cmpBytes int) int {
	return max(1, min(lockstepChunk, transport.MaxFrameSize/4/max(1, cmpBytes)))
}

// settleSchedule is the one schedule of every settle step: each of
// LockstepCluster's waves, Pair.Settle's region sub-queries and settleEnhanced's core
// queries. Whole rows are packed, in order, into chunks of at most bound
// total weight — a row joins the open chunk unless it would take it past
// the bound, and a single heavier row is its own chunk — and chunk c runs
// on worker channel c mod w: worker t runs chunks t, t+w, … in order, all w
// concurrently (at w = 1, inline), each as one run(t, chunk) call that
// returns one result per item. The results come back chunk by chunk, for
// the caller to write on its own goroutine once every worker has returned.
// Rows, chunks and channels are a pure function of rows, weight, w and
// bound, so every party that holds those runs the same schedule.
func settleSchedule[T, R any](rows [][]T, weight func(row []T) int, w, bound int,
	run func(ch int, chunk []T) ([]R, error)) (chunks [][]T, results [][]R, err error) {
	var open []T
	size := 0
	for _, row := range rows {
		rw := weight(row)
		if size += rw; len(open) > 0 && size > bound {
			chunks, open, size = append(chunks, open), nil, rw
		}
		open = append(open, row...)
	}
	if len(open) > 0 {
		chunks = append(chunks, open)
	}
	results = make([][]R, len(chunks))
	err = runWave(min(w, len(chunks)), func(t int) error {
		for c := t; c < len(chunks); c += w {
			res, err := run(t, chunks[c])
			if err != nil {
				return err
			}
			if len(res) != len(chunks[c]) {
				return fmt.Errorf("core: settle chunk returned %d results for %d items", len(res), len(chunks[c]))
			}
			results[c] = res
		}
		return nil
	})
	return chunks, results, err
}

// lockstepAsk is the planner's phase-1 multiplier: a point still short of
// core asks for lockstepAsk times the positives it lacks. It is measured,
// not a knob: on the bench `wan` workload k = 1 decided the fewest pairs
// but took more waves, k = 4 decided half again as many as k = 2, and
// k = 2 read the lowest run time of the three (CHANGES.md).
const lockstepAsk = 2

// LockstepCluster is the shared DBSCAN driver of Algorithms 5–6 for the
// pair-shaped protocols: every participant executes this exact code with
// a jointly-computed pairwise decision oracle, so the sequence of
// sub-protocol invocations is identical on all sides, and all end with the
// same labelling. The two-party vertical and arbitrary protocols use it,
// as does the multi-party ring (internal/multiparty).
//
// DBSCAN's labels need three things of the pair matrix: which points are
// core, which core points connect, and the whole neighbourhood of every
// point that is not core. So step 1 decides pairs in waves until no pair
// is left that the labels need, and the rest of the matrix is never
// compared.
//
// Every pair i < j is offered once, before the first wave. decideLocal,
// when non-nil, settles a pair without the oracle (the grid-pruning
// shortcut, see PrunedLocalDecider). prior, when non-nil, seeds the run
// with a cross-run PairCache: a pair already in it never reaches the
// oracle — onCached fires for it, once (the hook records the
// decision-level Ledger budget and the cached-comparison counter). What is
// left are the undecided candidates, and each wave asks some of them:
// planWave names the wave's pairs, grouped into rows by the
// higher-indexed endpoint — row j holds the wave's pairs (i, j), i
// ascending, so an appended record's pairs form one row: its
// neighbourhood — and the rows go through settleSchedule, a pair weighing
// one: chunks of whole rows, at most chunkBound(cmpBytes) pairs unless a
// single row is larger, chunk c as one batchOn(c mod w, pairs) call on
// that worker channel. batchOn reads each pair's row back with PairRows,
// which is how the callers keep the grouped comparison uplink's dedup
// inside one neighbourhood (compare/full.go). Every family's batchOn runs
// its chunk as one exchange at every batching and packing — vertical its
// comparisons, arbitrary one cross-dot exchange and its comparisons, the
// ring one circulation — and Config.Batching switches only the comparison
// leg: one batch, or one comparison at a time in chunk order. Oracle
// results are written to the matrix and to prior after every worker has
// returned, on the calling goroutine, so the cache needs no locking.
//
// A wave is a pure function of what every participant holds identically:
// the candidates left after decideLocal and prior, MinPts, the bits
// decided so far — which every participant learns (Theorem 10) — and the
// engine behind cmpBytes. So the jointly-computed oracles pair up wave for
// wave and chunk for chunk, the decided pairs — with them the labels and
// every count-based Ledger class — do not depend on w, and what a run
// discloses is a subset of the whole pair matrix: the pairs asked depend
// on nothing but bits already disclosed. A wave short of one chunk is
// topped up to a chunk (planWave), so a Run takes at most one wave per
// chunk's worth of undecided candidates, plus one.
//
// Step 2 is plain DBSCAN over the decided positive pairs:
// dbscan.ClusterGeneric, the same Algorithm-6 control flow the plaintext
// oracle runs. Its labels are the full matrix's: a point is core iff its
// decided positives reach MinPts — a point is left short only once its
// every candidate is decided; two core points share a component iff they
// do over the full matrix — no undecided pair joins two components; and a
// point that is not core has its whole neighbourhood decided, so it
// borders the same clusters.
func LockstepCluster(n, minPts, w, cmpBytes int,
	prior *PairCache, onCached func(pr [2]int, in bool),
	decideLocal func(pr [2]int) (value, decided bool),
	batchOn func(ch int, pairs [][2]int) ([]bool, error)) ([]int, int, error) {
	if minPts < 1 {
		return nil, 0, fmt.Errorf("core: MinPts %d < 1", minPts)
	}
	if w < 1 {
		return nil, 0, fmt.Errorf("core: worker width %d < 1", w)
	}
	// near[i] is i's decided Eps-neighbourhood, itself included; open[i]
	// its undecided candidates, ascending.
	near := make([][]int, n)
	for i := range near {
		near[i] = []int{i}
	}
	open := make([][]int, n)
	settle := func(pr [2]int, in bool) {
		if in {
			near[pr[0]] = append(near[pr[0]], pr[1])
			near[pr[1]] = append(near[pr[1]], pr[0])
		}
	}

	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			pr := [2]int{i, j}
			if decideLocal != nil {
				if in, ok := decideLocal(pr); ok {
					settle(pr, in)
					continue
				}
			}
			if prior != nil {
				if in, ok := prior.m[pr]; ok {
					settle(pr, in)
					if onCached != nil {
						onCached(pr, in)
					}
					continue
				}
			}
			open[i] = append(open[i], j)
			open[j] = append(open[j], i)
		}
	}
	bound := chunkBound(cmpBytes)
	for {
		rows := planWave(minPts, bound, near, open)
		if rows == nil {
			break
		}
		chunks, results, err := settleSchedule(rows, func(row [][2]int) int { return len(row) }, w, bound, batchOn)
		if err != nil {
			return nil, 0, err
		}
		asked := make(map[[2]int]bool)
		for c, chunk := range chunks {
			for u, pr := range chunk {
				settle(pr, results[c][u])
				if prior != nil {
					prior.m[pr] = results[c][u]
				}
				asked[pr] = true
			}
		}
		for i, part := range open {
			open[i] = slices.DeleteFunc(part, func(j int) bool { return asked[[2]int{min(i, j), max(i, j)}] })
		}
	}

	for i := range near {
		sort.Ints(near[i])
	}
	labels, clusters := dbscan.ClusterGeneric(n, func(i int) []int { return near[i] }, minPts)
	return labels, clusters, nil
}

// planWave names LockstepCluster's next wave, as rows of pairs (row j the
// pairs (i, j), i ascending), or nil once the labels need no more pairs.
// near[i] is i's decided neighbourhood (itself included), open[i] its
// undecided candidates ascending; a point is core once len(near[i]) ≥
// minPts, and core points joined by decided positive pairs form one
// component. A pair is still relevant unless both its ends are core points
// of one component: its bit could change no label.
//
//   - Phase 1: each point not yet core asks for its first
//     lockstepAsk × (minPts − len(near[i])) undecided candidates.
//   - Phase 2: when no point short of core has an undecided candidate, the
//     wave is one pair — the first in (i, j) order — for each pair of core
//     components an undecided pair still runs between.
//   - Top-up: a wave of fewer than group pairs — one chunk — is filled up
//     to group with the further relevant pairs in (i, j) order, so a chunk
//     the wave pays a round trip for is never left part empty. When the
//     relevant pairs number at most group, the wave is all of them.
//
// Every wave but the last holds at least group pairs, so a Run takes at
// most ⌊undecided candidates / group⌋ + 1 waves; the wave is a function of
// its arguments only.
func planWave(minPts, group int, near, open [][]int) [][][2]int {
	n := len(near)
	core := func(i int) bool { return len(near[i]) >= minPts }
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	find := func(i int) int {
		for comp[i] != i {
			comp[i] = comp[comp[i]]
			i = comp[i]
		}
		return i
	}
	for i, nb := range near {
		if core(i) {
			for _, j := range nb {
				if j > i && core(j) {
					comp[find(j)] = find(i)
				}
			}
		}
	}
	// relevant lists the relevant pairs in (i, j) order, so that every row
	// built from it comes out ascending.
	var relevant [][2]int
	for i, part := range open {
		for _, j := range part {
			if j > i && (!core(i) || !core(j) || find(i) != find(j)) {
				relevant = append(relevant, [2]int{i, j})
			}
		}
	}
	if len(relevant) == 0 {
		return nil
	}

	// Phase 1: last[i] is the largest partner i asks for, -1 for none.
	last := make([]int, n)
	for i, part := range open {
		last[i] = -1
		if lack := minPts - len(near[i]); lack > 0 && len(part) > 0 {
			last[i] = part[min(lockstepAsk*lack, len(part))-1]
		}
	}
	ask := make([]bool, len(relevant))
	asked := 0
	for u, pr := range relevant {
		if pr[1] <= last[pr[0]] || pr[0] <= last[pr[1]] {
			ask[u] = true
			asked++
		}
	}
	if asked == 0 {
		joined := make(map[[2]int]bool)
		for u, pr := range relevant {
			ci, cj := find(pr[0]), find(pr[1])
			if k := [2]int{min(ci, cj), max(ci, cj)}; !joined[k] {
				joined[k] = true
				ask[u] = true
				asked++
			}
		}
	}
	rows := make([][][2]int, n)
	for u, pr := range relevant {
		if !ask[u] && asked < group {
			ask[u] = true
			asked++
		}
		if ask[u] {
			rows[pr[1]] = append(rows[pr[1]], pr)
		}
	}
	return rows
}

// PairRows names the row of every pair of a chunk — its higher-indexed
// endpoint, the grouping LockstepCluster packs chunks by — in the form
// compare.Alice's BatchLessRows / BatchLessEqRows take.
func PairRows(pairs [][2]int) []int {
	rows := make([]int, len(pairs))
	for u, pr := range pairs {
		rows[u] = pr[1]
	}
	return rows
}

// shiftRows refines PairRows by a public per-pair shift: two instances
// share a row iff they share the pair's row and its shift, rows numbered
// in order of first appearance. Within one such row equal shifted operands
// are equal operands, so a grouped uplink over it discloses no more than
// over PairRows.
func shiftRows(pairs [][2]int, shifts []int64) []int {
	ids := make(map[[2]int64]int)
	rows := make([]int, len(pairs))
	for u, pr := range pairs {
		k := [2]int64{int64(pr[1]), shifts[u]}
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
		}
		rows[u] = id
	}
	return rows
}
