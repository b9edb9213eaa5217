package multiparty

import (
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
)

// TestRingBatchedMatchesSequential mirrors the core equivalence harness
// for the k-party ring: the batched round structure (one circulation per
// lockstep neighborhood) must produce exactly the labels and pair-decision
// counts of the sequential structure (one circulation per pair).
func TestRingBatchedMatchesSequential(t *testing.T) {
	points := gridData(t, 18, 3, 11)
	for _, k := range []int{2, 3} {
		seqCfg := testCfg(compare.EngineMasked)
		seqCfg.Batching = core.BatchModeSequential
		seqResults, err := runRing(t, seqCfg, splitColumns(points, k))
		if err != nil {
			t.Fatalf("k=%d sequential: %v", k, err)
		}
		batCfg := testCfg(compare.EngineMasked)
		batCfg.Batching = core.BatchModeBatched
		batResults, err := runRing(t, batCfg, splitColumns(points, k))
		if err != nil {
			t.Fatalf("k=%d batched: %v", k, err)
		}
		for p := range seqResults {
			if !metrics.ExactMatch(batResults[p].Labels, seqResults[p].Labels) {
				t.Errorf("k=%d party %d labels diverge: batched %v, sequential %v",
					k, p, batResults[p].Labels, seqResults[p].Labels)
			}
			if batResults[p].PairDecisions != seqResults[p].PairDecisions {
				t.Errorf("k=%d party %d pair decisions: batched %d, sequential %d",
					k, p, batResults[p].PairDecisions, seqResults[p].PairDecisions)
			}
		}
	}
}

// TestRingPrunedMatchesExhaustive mirrors the core pruning harness for the
// k-party ring: grid pruning must reproduce the exhaustive labels and pair
// decisions exactly (pruned pairs still count — the index implies them),
// while both circulate an index — the exhaustive run's on the one-cell
// grid.
func TestRingPrunedMatchesExhaustive(t *testing.T) {
	points := gridData(t, 18, 3, 11)
	for _, k := range []int{2, 3} {
		offCfg := testCfg(compare.EngineMasked)
		offCfg.Pruning = core.PruneOff
		offResults, err := runRing(t, offCfg, splitColumns(points, k))
		if err != nil {
			t.Fatalf("k=%d exhaustive: %v", k, err)
		}
		onCfg := testCfg(compare.EngineMasked)
		onCfg.Pruning = core.PruneGrid
		onResults, err := runRing(t, onCfg, splitColumns(points, k))
		if err != nil {
			t.Fatalf("k=%d pruned: %v", k, err)
		}
		for p := range offResults {
			if !metrics.ExactMatch(onResults[p].Labels, offResults[p].Labels) {
				t.Errorf("k=%d party %d labels diverge: pruned %v, exhaustive %v",
					k, p, onResults[p].Labels, offResults[p].Labels)
			}
			if onResults[p].PairDecisions != offResults[p].PairDecisions {
				t.Errorf("k=%d party %d pair decisions: pruned %d, exhaustive %d",
					k, p, onResults[p].PairDecisions, offResults[p].PairDecisions)
			}
			// The exhaustive run circulates the one-cell grid's index: as
			// many coordinates as the pruned run's, every one the one cell.
			if offResults[p].IndexCellCoords != onResults[p].IndexCellCoords {
				t.Errorf("k=%d party %d index coords: exhaustive %d, pruned %d",
					k, p, offResults[p].IndexCellCoords, onResults[p].IndexCellCoords)
			}
			if onResults[p].IndexCellCoords == 0 {
				t.Errorf("k=%d party %d pruned run recorded no index disclosure", k, p)
			}
		}
	}
}

// TestHorizontalMeshPrunedMatchesExhaustive does the same for the k-party
// horizontal mesh, under both round structures.
func TestHorizontalMeshPrunedMatchesExhaustive(t *testing.T) {
	for _, batching := range []core.BatchMode{core.BatchModeBatched, core.BatchModeSequential} {
		offCfg := testCfg(compare.EngineMasked)
		offCfg.Batching = batching
		offCfg.Pruning = core.PruneOff
		offResults, offErrs := runMesh(t, sameCfgs(3, offCfg), threePartyPoints)
		for p, err := range offErrs {
			if err != nil {
				t.Fatalf("%s party %d exhaustive: %v", batching, p, err)
			}
		}
		onCfg := testCfg(compare.EngineMasked)
		onCfg.Batching = batching
		onCfg.Pruning = core.PruneGrid
		onResults, onErrs := runMesh(t, sameCfgs(3, onCfg), threePartyPoints)
		for p, err := range onErrs {
			if err != nil {
				t.Fatalf("%s party %d pruned: %v", batching, p, err)
			}
		}
		for p := range offResults {
			if !metrics.ExactMatch(onResults[p].Labels, offResults[p].Labels) {
				t.Errorf("%s party %d labels diverge: pruned %v, exhaustive %v",
					batching, p, onResults[p].Labels, offResults[p].Labels)
			}
			if onResults[p].RegionQueries != offResults[p].RegionQueries {
				t.Errorf("%s party %d region queries: pruned %d, exhaustive %d",
					batching, p, onResults[p].RegionQueries, offResults[p].RegionQueries)
			}
		}
	}
}

// TestHorizontalMeshBatchedMatchesSequential does the same for the k-party
// horizontal mesh.
func TestHorizontalMeshBatchedMatchesSequential(t *testing.T) {
	seqCfg := testCfg(compare.EngineMasked)
	seqCfg.Batching = core.BatchModeSequential
	seqResults, seqErrs := runMesh(t, sameCfgs(3, seqCfg), threePartyPoints)
	for p, err := range seqErrs {
		if err != nil {
			t.Fatalf("party %d sequential: %v", p, err)
		}
	}
	batCfg := testCfg(compare.EngineMasked)
	batCfg.Batching = core.BatchModeBatched
	batResults, batErrs := runMesh(t, sameCfgs(3, batCfg), threePartyPoints)
	for p, err := range batErrs {
		if err != nil {
			t.Fatalf("party %d batched: %v", p, err)
		}
	}
	for p := range seqResults {
		if !metrics.ExactMatch(batResults[p].Labels, seqResults[p].Labels) {
			t.Errorf("party %d labels diverge: batched %v, sequential %v",
				p, batResults[p].Labels, seqResults[p].Labels)
		}
	}
}
