package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// plainSelect runs one selector to its answer over concrete values.
func plainSelect(n, k int, kind SelectionKind, vals []int64) (idx, comparisons int, err error) {
	kth, comparisons, err := selectRows(kind, []int{k}, []int{n}, func(pairs [][2]int, _ []int) ([]bool, error) {
		bits := make([]bool, len(pairs))
		for t, pr := range pairs {
			bits[t] = vals[pr[0]] <= vals[pr[1]]
		}
		return bits, nil
	})
	if err != nil {
		return 0, 0, err
	}
	return kth[0], comparisons, nil
}

func TestParseSelection(t *testing.T) {
	if k, err := ParseSelection("scan"); err != nil || k != SelectionScan {
		t.Errorf("ParseSelection(scan) = %v, %v", k, err)
	}
	if k, err := ParseSelection("quickselect"); err != nil || k != SelectionQuick {
		t.Errorf("ParseSelection(quickselect) = %v, %v", k, err)
	}
	if _, err := ParseSelection("nope"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestKthSmallestValidation(t *testing.T) {
	vals := []int64{1, 2, 3}
	if _, _, err := plainSelect(3, 0, SelectionScan, vals); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := plainSelect(3, 4, SelectionScan, vals); err == nil {
		t.Error("k>n accepted")
	}
	if _, _, err := plainSelect(3, 1, SelectionKind("bogus"), vals); err == nil {
		t.Error("bogus kind accepted")
	}
	if _, _, err := selectRows(SelectionScan, []int{1}, []int{3}, func(pairs [][2]int, _ []int) ([]bool, error) {
		return make([]bool, len(pairs)-1), nil
	}); err == nil {
		t.Error("a round answered with one bit short accepted")
	}
}

func TestKthSmallestExhaustiveSmall(t *testing.T) {
	vals := []int64{50, 10, 40, 20, 30}
	sorted := append([]int64{}, vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
		for k := 1; k <= len(vals); k++ {
			idx, comps, err := plainSelect(len(vals), k, kind, vals)
			if err != nil {
				t.Fatalf("%s k=%d: %v", kind, k, err)
			}
			if vals[idx] != sorted[k-1] {
				t.Errorf("%s k=%d: got vals[%d]=%d, want %d", kind, k, idx, vals[idx], sorted[k-1])
			}
			if comps < 1 {
				t.Errorf("%s k=%d: comparisons = %d", kind, k, comps)
			}
		}
	}
}

func TestKthSmallestSingleton(t *testing.T) {
	for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
		idx, comps, err := plainSelect(1, 1, kind, []int64{7})
		if err != nil || idx != 0 {
			t.Errorf("%s: idx=%d err=%v", kind, idx, err)
		}
		if comps != 0 {
			t.Errorf("%s: singleton needed %d comparisons", kind, comps)
		}
	}
}

func TestKthSmallestWithTies(t *testing.T) {
	vals := []int64{5, 5, 5, 1, 1}
	for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
		// 2nd smallest of {1,1,5,5,5} is 1; 3rd is 5.
		idx, _, err := plainSelect(len(vals), 2, kind, vals)
		if err != nil || vals[idx] != 1 {
			t.Errorf("%s k=2: vals[%d]=%d, want 1 (err=%v)", kind, idx, vals[idx], err)
		}
		idx, _, err = plainSelect(len(vals), 3, kind, vals)
		if err != nil || vals[idx] != 5 {
			t.Errorf("%s k=3: vals[%d]=%d, want 5 (err=%v)", kind, idx, vals[idx], err)
		}
	}
}

// Property: both strategies return an index holding the k-th order
// statistic for random inputs, and the scan's comparison count matches its
// O(kn) formula exactly: Σ_{r=0}^{k−1}(n−1−r).
func TestKthSmallestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(n)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(20)) // duplicates likely
		}
		sorted := append([]int64{}, vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		want := sorted[k-1]

		idxScan, compsScan, err := plainSelect(n, k, SelectionScan, vals)
		if err != nil || vals[idxScan] != want {
			return false
		}
		wantComps := 0
		for r := 0; r < k; r++ {
			wantComps += n - 1 - r
		}
		if compsScan != wantComps {
			return false
		}
		idxQ, _, err := plainSelect(n, k, SelectionQuick, vals)
		return err == nil && vals[idxQ] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Quickselect must use fewer comparisons than the scan for large k — the
// paper's rationale for offering both (E9's ablation in miniature).
func TestQuickselectBeatsScanForLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000000)
	}
	k := n / 2
	_, compsScan, err := plainSelect(n, k, SelectionScan, vals)
	if err != nil {
		t.Fatal(err)
	}
	_, compsQuick, err := plainSelect(n, k, SelectionQuick, vals)
	if err != nil {
		t.Fatal(err)
	}
	if compsQuick >= compsScan {
		t.Errorf("quickselect %d comparisons ≥ scan %d at k=n/2", compsQuick, compsScan)
	}
}

// TestSelectorsMatchRecursions: the step machines against the selection
// recursions the enhanced protocol ran up to handshake v12, kept verbatim
// below. Over random n ≤ 40, every k, both kinds and values with many ties,
// a selector asks exactly the pairs the batched recursion asks, round for
// round in the same order, and returns the same index after the same
// number of comparisons; the sequential recursions agree on the count and
// on the k-th value (quickselect's on the pairs and the index too, its
// batches being its comparisons in order). selectRows over several rows at
// once, each round one batch of every unfinished row's pairs, asks each
// row the same pairs in the same order as that row alone.
func TestSelectorsMatchRecursions(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(1 + n/3))
		}
		for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
			for k := 1; k <= n; k++ {
				at := fmt.Sprintf("trial %d %s n=%d k=%d", trial, kind, n, k)
				var want [][][2]int
				wantIdx, wantComps, err := kthSmallestBatch(n, k, kind, func(pairs [][2]int) ([]bool, error) {
					want = append(want, slices.Clone(pairs))
					return answer(vals, pairs), nil
				})
				if err != nil {
					t.Fatalf("%s: recursion: %v", at, err)
				}
				var got [][][2]int
				kth, comps, err := selectRows(kind, []int{k}, []int{n}, func(pairs [][2]int, _ []int) ([]bool, error) {
					got = append(got, slices.Clone(pairs))
					return answer(vals, pairs), nil
				})
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if !slices.EqualFunc(got, want, slices.Equal) || kth[0] != wantIdx || comps != wantComps {
					t.Fatalf("%s: rounds %v → index %d after %d comparisons; the recursion %v → %d after %d",
						at, got, kth[0], comps, want, wantIdx, wantComps)
				}
				var seq [][2]int
				seqIdx, seqComps, err := kthSmallest(n, k, kind, func(a, b int) (bool, error) {
					seq = append(seq, [2]int{a, b})
					return vals[a] <= vals[b], nil
				})
				if err != nil || seqComps != comps || vals[seqIdx] != vals[kth[0]] {
					t.Fatalf("%s: sequential recursion: vals[%d] after %d comparisons (%v); selector vals[%d] after %d", at, seqIdx, seqComps, err, kth[0], comps)
				}
				if kind == SelectionQuick && (seqIdx != kth[0] || !slices.Equal(seq, slices.Concat(got...))) {
					t.Fatalf("%s: sequential quickselect asked %v → %d, the selector %v → %d", at, seq, seqIdx, got, kth[0])
				}
			}
		}
	}

	// Several rows in lockstep: row r sees its own pairs, in its own order.
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(6)
		kind := []SelectionKind{SelectionScan, SelectionQuick}[trial%2]
		ks, ns := make([]int, rows), make([]int, rows)
		var vals []int64
		for r := range ks {
			ns[r] = 1 + rng.Intn(12)
			ks[r] = 1 + rng.Intn(ns[r])
			for i := 0; i < ns[r]; i++ {
				vals = append(vals, int64(rng.Intn(6)))
			}
		}
		perRow := make([][][2]int, rows)
		kth, comps, err := selectRows(kind, ks, ns, func(pairs [][2]int, rowOf []int) ([]bool, error) {
			for u, pr := range pairs {
				if u > 0 && rowOf[u] < rowOf[u-1] {
					t.Fatalf("rows out of order in one round: %v", rowOf)
				}
				perRow[rowOf[u]] = append(perRow[rowOf[u]], pr)
			}
			return answer(vals, pairs), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		off, total := 0, 0
		for r := range ks {
			var alone [][2]int
			idx, c, err := kthSmallestBatch(ns[r], ks[r], kind, func(pairs [][2]int) ([]bool, error) {
				for _, pr := range pairs {
					alone = append(alone, [2]int{off + pr[0], off + pr[1]})
				}
				return answer(vals[off:], pairs), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(perRow[r], alone) || kth[r] != off+idx {
				t.Errorf("trial %d row %d: asked %v → %d in lockstep, %v → %d alone", trial, r, perRow[r], kth[r], alone, off+idx)
			}
			off, total = off+ns[r], total+c
		}
		if comps != total {
			t.Errorf("trial %d: %d comparisons in lockstep, %d row by row", trial, comps, total)
		}
	}
}

// answer decides a round of pairs over plaintext values.
func answer(vals []int64, pairs [][2]int) []bool {
	bits := make([]bool, len(pairs))
	for t, pr := range pairs {
		bits[t] = vals[pr[0]] <= vals[pr[1]]
	}
	return bits
}

// The selection recursions of handshake ≤ v12, verbatim: kthSmallest and
// its two strategies asked one comparison at a time (Batching: sequential),
// kthSmallestBatch and its two one batch per step. Test oracles only.

// lessEqOracle answers "is item a's hidden value ≤ item b's?" via one
// secure comparison. Both parties observe the same answer, so running the
// same deterministic selection code keeps their states in lock step.
type lessEqOracle func(a, b int) (bool, error)

// lessEqBatchOracle answers a whole vector of independent "value(a) ≤
// value(b)?" questions in one constant-round sub-protocol (one
// compare.BatchLessEq underneath). Determinism keeps both parties'
// batches identical.
type lessEqBatchOracle func(pairs [][2]int) ([]bool, error)

// kthSmallest returns the index (0-based, into the original n items) of
// the k-th smallest hidden value (k is 1-based) plus the number of oracle
// calls consumed.
func kthSmallest(n, k int, kind SelectionKind, le lessEqOracle) (idx, comparisons int, err error) {
	if k < 1 || k > n {
		return 0, 0, fmt.Errorf("core: selection k=%d outside [1,%d]", k, n)
	}
	counted := func(a, b int) (bool, error) {
		comparisons++
		return le(a, b)
	}
	switch kind {
	case SelectionScan:
		idx, err = kthSmallestScan(n, k, counted)
	case SelectionQuick:
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		idx, err = quickselect(items, k, counted)
	default:
		return 0, 0, fmt.Errorf("core: unknown selection strategy %q", kind)
	}
	return idx, comparisons, err
}

// kthSmallestBatch is kthSmallest restructured around a batched oracle:
// the same selection strategies consume the same number of comparisons
// (so OrderBits Ledger entries match the sequential path exactly), but
// independent comparisons within one step travel together:
//
//   - scan: each of the k minimum-extraction rounds becomes a knockout
//     tournament — ⌈log₂ n⌉ batched rounds of pairwise comparisons,
//     still n−1 comparisons per round.
//   - quickselect: all comparisons against one pivot form a single batch,
//     one batched round per partition step.
//
// Ties may resolve to a different index than the sequential scan's
// last-wins rule, but only among items with equal hidden values, so the
// k-th order VALUE — all either party acts on — is unchanged.
func kthSmallestBatch(n, k int, kind SelectionKind, leb lessEqBatchOracle) (idx, comparisons int, err error) {
	if k < 1 || k > n {
		return 0, 0, fmt.Errorf("core: selection k=%d outside [1,%d]", k, n)
	}
	counted := func(pairs [][2]int) ([]bool, error) {
		comparisons += len(pairs)
		return leb(pairs)
	}
	switch kind {
	case SelectionScan:
		idx, err = kthSmallestScanBatch(n, k, counted)
	case SelectionQuick:
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		idx, err = quickselectBatch(items, k, counted)
	default:
		return 0, 0, fmt.Errorf("core: unknown selection strategy %q", kind)
	}
	return idx, comparisons, err
}

// kthSmallestScanBatch extracts the minimum k times, each time by a
// knockout tournament of batched pairwise comparisons.
func kthSmallestScanBatch(n, k int, leb lessEqBatchOracle) (int, error) {
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var last int
	for round := 0; round < k; round++ {
		cand := append([]int(nil), remaining...)
		for len(cand) > 1 {
			pairs := make([][2]int, 0, len(cand)/2)
			for t := 0; t+1 < len(cand); t += 2 {
				pairs = append(pairs, [2]int{cand[t], cand[t+1]})
			}
			res, err := leb(pairs)
			if err != nil {
				return 0, err
			}
			if len(res) != len(pairs) {
				return 0, fmt.Errorf("core: selection batch returned %d results for %d pairs", len(res), len(pairs))
			}
			next := make([]int, 0, (len(cand)+1)/2)
			for t, pr := range pairs {
				if res[t] {
					next = append(next, pr[0])
				} else {
					next = append(next, pr[1])
				}
			}
			if len(cand)%2 == 1 {
				next = append(next, cand[len(cand)-1])
			}
			cand = next
		}
		last = cand[0]
		for pos, it := range remaining {
			if it == last {
				remaining = append(remaining[:pos], remaining[pos+1:]...)
				break
			}
		}
	}
	return last, nil
}

// quickselectBatch is quickselect with each partition round's pivot
// comparisons submitted as one batch.
func quickselectBatch(items []int, k int, leb lessEqBatchOracle) (int, error) {
	for {
		if len(items) == 1 {
			return items[0], nil
		}
		pivot := items[len(items)-1]
		pairs := make([][2]int, len(items)-1)
		for t, it := range items[:len(items)-1] {
			pairs[t] = [2]int{it, pivot}
		}
		res, err := leb(pairs)
		if err != nil {
			return 0, err
		}
		if len(res) != len(pairs) {
			return 0, fmt.Errorf("core: selection batch returned %d results for %d pairs", len(res), len(pairs))
		}
		var lows, highs []int
		for t, it := range items[:len(items)-1] {
			if res[t] {
				lows = append(lows, it)
			} else {
				highs = append(highs, it)
			}
		}
		switch {
		case k <= len(lows):
			items = lows
		case k == len(lows)+1:
			return pivot, nil
		default:
			k -= len(lows) + 1
			items = highs
		}
	}
}

// kthSmallestScan is the paper's first algorithm: k iterations, each
// finding and removing the minimum of the remaining items.
func kthSmallestScan(n, k int, le lessEqOracle) (int, error) {
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var last int
	for round := 0; round < k; round++ {
		minPos := 0
		for pos := 1; pos < len(remaining); pos++ {
			isLE, err := le(remaining[pos], remaining[minPos])
			if err != nil {
				return 0, err
			}
			if isLE {
				minPos = pos
			}
		}
		last = remaining[minPos]
		remaining = append(remaining[:minPos], remaining[minPos+1:]...)
	}
	return last, nil
}

// quickselect is the paper's second algorithm (quicksort-based selection,
// [21]). The pivot is the last element of each sub-range — deterministic,
// so both parties partition identically.
func quickselect(items []int, k int, le lessEqOracle) (int, error) {
	for {
		if len(items) == 1 {
			return items[0], nil
		}
		pivot := items[len(items)-1]
		var lows, highs []int
		for _, it := range items[:len(items)-1] {
			isLE, err := le(it, pivot)
			if err != nil {
				return 0, err
			}
			if isLE {
				lows = append(lows, it)
			} else {
				highs = append(highs, it)
			}
		}
		switch {
		case k <= len(lows):
			items = lows
		case k == len(lows)+1:
			return pivot, nil
		default:
			k -= len(lows) + 1
			items = highs
		}
	}
}
