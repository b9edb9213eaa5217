package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dbscan"
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

// lockstepWidths are the wave widths the boundary cases run at: the
// one-worker inline wave and a width wider than any of their queues.
var lockstepWidths = []int{1, 4}

// TestLockstepMinPtsBoundary pins the self-inclusive MinPts semantics at
// the exact boundary: a 3-point clique is all-core at MinPts=3 and
// all-noise at MinPts=4.
func TestLockstepMinPtsBoundary(t *testing.T) {
	pts := [][]int64{{0, 0}, {1, 0}, {0, 1}}
	oracle := plainBatchOracle(pts, 2)
	for _, w := range lockstepWidths {
		labels, k, err := LockstepCluster(len(pts), 3, w, nil, nil, nil, oracle)
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
		labels, k, err = LockstepCluster(len(pts), 4, w, nil, nil, nil, oracle)
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
		labels, k, err := LockstepCluster(len(pts), 2, w, nil, nil, nil, func(_ int, pairs [][2]int) ([]bool, error) {
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
		labels, k, err := LockstepCluster(0, 2, w, nil, nil, nil, oracle)
		if err != nil || len(labels) != 0 || k != 0 {
			t.Fatalf("W=%d n=0: labels=%v clusters=%d err=%v", w, labels, k, err)
		}
		labels, k, err = LockstepCluster(1, 2, w, nil, nil, nil, oracle)
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
		labels, k, err = LockstepCluster(1, 1, w, nil, nil, nil, oracle)
		if err != nil || k != 1 || labels[0] != 1 {
			t.Fatalf("W=%d n=1 MinPts=1: labels=%v clusters=%d err=%v", w, labels, k, err)
		}
		if _, _, err := LockstepCluster(3, 0, w, nil, nil, nil, oracle); err == nil {
			t.Errorf("W=%d: MinPts=0 accepted", w)
		}
	}
	if _, _, err := LockstepCluster(3, 2, 0, nil, nil, nil, plainBatchOracle(nil, 0)); err == nil {
		t.Error("width 0 accepted")
	}
}

// TestLockstepBadBatchSliceErrors: a batch oracle that returns fewer or
// more results than pairs must surface an error, never panic or mislabel.
func TestLockstepBadBatchSliceErrors(t *testing.T) {
	for _, w := range lockstepWidths {
		for _, size := range []int{0, 1, 7} { // point 0's batch has 3 pairs
			_, _, err := LockstepCluster(4, 2, w, nil, nil, nil, func(int, [][2]int) ([]bool, error) {
				return make([]bool, size), nil
			})
			if err == nil {
				t.Fatalf("W=%d: oracle slice of %d results for 3 pairs accepted", w, size)
			}
		}
		// Errors from the oracle propagate unchanged.
		boom := errors.New("boom")
		_, _, err := LockstepCluster(4, 2, w, nil, nil, nil, func(int, [][2]int) ([]bool, error) {
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("W=%d: oracle error not propagated: %v", w, err)
		}
	}
}

// TestPrunedPairsNeverReachOracle: pairs the cell matrix puts in
// non-adjacent cells are settled out of range by PrunedLocalDecider —
// each accounted once — and an all-pruned neighbourhood issues no batch.
func TestPrunedPairsNeverReachOracle(t *testing.T) {
	cells := [][]int64{{0, 0}, {4, 4}, {9, 9}}
	for _, w := range lockstepWidths {
		pruned := map[[2]int]int{}
		decide := PrunedLocalDecider(cells, func(pr [2]int) { pruned[pr]++ })
		labels, k, err := LockstepCluster(len(cells), 2, w, nil, nil, decide, func(int, [][2]int) ([]bool, error) {
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
