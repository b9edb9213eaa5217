package multiparty

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/spatial"
)

// The multiparty retraction-equivalence harness: a ring (or mesh)
// session deleting individual live records must produce labels and
// decision-level disclosure counts identical to a one-shot run over
// exactly the surviving records, on every party, while the pair bits and
// count segments untouched by the retraction keep contributing.

// ringRetractGens is the shared record stream, one batch per generation;
// every retraction targets the newest generation.
var ringRetractGens = [][][]float64{
	{{1, 1, 1}, {2, 1, 1}, {9, 9, 9}, {9, 8, 9}},
	{{1, 2, 1}, {8, 9, 8}, {5, 5, 5}},
	{{2, 2, 2}, {9, 9, 8}, {8, 8, 6}, {1, 1, 2}},
}

// ringRetractSteps are the scripted retraction exchanges; the records
// are shared, so every party circulates the same id lists (step 2's ids
// are in the live numbering step 1's compaction leaves).
var ringRetractSteps = [][]int{
	{8, 10},
	{8},
}

// retractDrop removes the strictly ascending ids from rows — the
// survivor list a retraction leaves, in its compacted numbering.
func retractDrop[T any](rows []T, ids []int) []T {
	out := make([]T, 0, len(rows)-len(ids))
	next := 0
	for i, r := range rows {
		if next < len(ids) && ids[next] == i {
			next++
			continue
		}
		out = append(out, r)
	}
	return out
}

// ringRetractSurvivors returns the per-stage survivor snapshots of the
// shared record stream (stage 0 = nothing retracted).
func ringRetractSurvivors() [][][]float64 {
	full := ringRetractConcat()
	at := [][][]float64{full}
	for _, ids := range ringRetractSteps {
		at = append(at, retractDrop(at[len(at)-1], ids))
	}
	return at
}

func ringRetractConcat() [][]float64 {
	var out [][]float64
	for _, g := range ringRetractGens {
		out = append(out, g...)
	}
	return out
}

// runRingRetracted drives k concurrent RingSessions through the scripted
// retractions: fill (construct + appends), run, then retract + run per
// step.
func runRingRetracted(t *testing.T, cfg Config, k int) [][]*Result {
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
			rs, err := NewRingSession(parties[p], cfg, splitColumns(ringRetractGens[0], k)[p])
			if err != nil {
				errs[p] = err
				return
			}
			drive := func() error {
				res, err := rs.Run()
				if err != nil {
					return err
				}
				out[p] = append(out[p], res)
				return nil
			}
			for gen := 1; gen < len(ringRetractGens); gen++ {
				if errs[p] = rs.Append(splitColumns(ringRetractGens[gen], k)[p]); errs[p] != nil {
					return
				}
			}
			if errs[p] = drive(); errs[p] != nil {
				return
			}
			for _, ids := range ringRetractSteps {
				if errs[p] = rs.Retract(ids); errs[p] != nil {
					return
				}
				if errs[p] = drive(); errs[p] != nil {
					return
				}
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

func testRingRetracted(t *testing.T, cfg Config) {
	t.Helper()
	const k = 3
	inc := runRingRetracted(t, cfg, k)
	rowsAt := ringRetractSurvivors()
	for stage := 0; stage <= len(ringRetractSteps); stage++ {
		fresh, err := runRing(t, cfg, splitColumns(rowsAt[stage], k))
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < k; p++ {
			got := inc[p][stage]
			if !metrics.ExactMatch(got.Labels, fresh[p].Labels) {
				t.Errorf("stage %d party %d: labels %v, fresh ring %v", stage, p, got.Labels, fresh[p].Labels)
			}
			if got.PairDecisions != fresh[p].PairDecisions {
				t.Errorf("stage %d party %d: %d pair decisions, fresh ring %d", stage, p, got.PairDecisions, fresh[p].PairDecisions)
			}
			if stage > 0 && got.CachedPairs == 0 {
				t.Errorf("stage %d party %d: cache never hit across the retraction", stage, p)
			}
		}
	}
}

func TestRingRetractionEquivalence(t *testing.T) {
	testRingRetracted(t, testCfg(compare.EngineMasked))
}

func TestRingRetractionEquivalenceParallel(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Parallel = 4
	testRingRetracted(t, cfg)
}

func TestRingRetractionEquivalencePruningOff(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Pruning = core.PruneOff
	testRingRetracted(t, cfg)
}

// Ring retraction misuse: bad arguments fail locally on every party
// without touching the wire; mismatched id lists across parties fail
// loudly in the tombstone circulation instead of silently diverging.
func TestRingRetractMisuse(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	const k = 3
	parties := NewLocalRing(k)
	refilled := make([]*Result, k)
	errs := make([]error, k)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer parties[p].Next.Close()
			defer parties[p].Prev.Close()
			rs, err := NewRingSession(parties[p], cfg, splitColumns(ringRetractGens[0], k)[p])
			if err != nil {
				errs[p] = err
				return
			}
			// Local validation: no wire traffic, so one party's rejection
			// cannot wedge the others.
			if err := rs.Retract(nil); err == nil {
				mu.Lock()
				errs[p] = errExpected("empty Retract accepted")
				mu.Unlock()
				return
			}
			n := len(ringRetractGens[0])
			over := make([]int, n+1)
			for i := range over {
				over[i] = i
			}
			if err := rs.Retract(over); !errors.Is(err, spatial.ErrGenRange) {
				mu.Lock()
				errs[p] = errExpected("over-retraction did not return ErrGenRange")
				mu.Unlock()
				return
			}
			if err := rs.Retract([]int{1, 0}); err == nil {
				mu.Lock()
				errs[p] = errExpected("unsorted Retract accepted")
				mu.Unlock()
				return
			}
			// Retracting every live record leaves a valid empty window that a
			// refill restores: the next Run labels exactly the new records.
			if err := rs.Retract(over[:n]); err != nil {
				errs[p] = err
				return
			}
			if err := rs.Append(splitColumns(ringRetractGens[2], k)[p]); err != nil {
				errs[p] = err
				return
			}
			if refilled[p], err = rs.Run(); err != nil {
				errs[p] = err
				return
			}
			// Mismatched id lists: party 2 names a different record. The
			// circulation must fail on every party before anyone mutates.
			ids := []int{2}
			if p == 2 {
				ids = []int{1}
			}
			if err := rs.Retract(ids); err == nil {
				mu.Lock()
				errs[p] = errExpected("mismatched Retract succeeded")
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	fresh, err := runRing(t, cfg, splitColumns(ringRetractGens[2], k))
	if err != nil {
		t.Fatal(err)
	}
	for p := range fresh {
		if !metrics.ExactMatch(refilled[p].Labels, fresh[p].Labels) {
			t.Errorf("party %d: refilled window labels %v, fresh ring %v", p, refilled[p].Labels, fresh[p].Labels)
		}
	}
}

// Mesh: every party holds complete records and retracts its own; a party
// with nothing to delete participates with an empty list.
var meshRetractGens = [][][][]float64{ // [gen][party]
	{{{1, 1}, {2, 1}}, {{1, 2}, {9, 8}}, {{2, 2}, {8, 9}}},
	{{{9, 9}, {3, 3}}, {{5, 5}}, {{2, 3}}},
	{{{3, 2}, {9, 7}}, {{8, 8}, {1, 3}}, {{7, 9}}},
}

// meshRetractSteps are the per-party id lists of each retraction
// exchange, in the live numbering current at that step.
var meshRetractSteps = [][][]int{ // [step][party]
	{{5}, {4}, {}},
	{{4}, {}, {3}},
}

// meshRetractSurvivors returns party p's survivor snapshot after the
// first `stage` retraction steps.
func meshRetractSurvivors(p, stage int) [][]float64 {
	var rows [][]float64
	for _, g := range meshRetractGens {
		rows = append(rows, g[p]...)
	}
	for s := 0; s < stage; s++ {
		rows = retractDrop(rows, meshRetractSteps[s][p])
	}
	return rows
}

// runMeshRetractOnce runs the one-shot mesh protocol over the survivors
// of the first `stage` retraction steps.
func runMeshRetractOnce(t *testing.T, cfg Config, stage int) []*HorizontalResult {
	t.Helper()
	const k = 3
	mesh := NewLocalMesh(k)
	out := make([]*HorizontalResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			out[p], errs[p] = RunHorizontal(
				HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, meshRetractSurvivors(p, stage))
			for q, c := range mesh[p] {
				if q != p {
					c.Close()
				}
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

func testMeshRetracted(t *testing.T, cfg Config) {
	t.Helper()
	const k = 3
	mesh := NewLocalMesh(k)
	inc := make([][]*HorizontalResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				for q, c := range mesh[p] {
					if q != p {
						c.Close()
					}
				}
			}()
			ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, meshRetractGens[0][p])
			if err != nil {
				errs[p] = err
				return
			}
			drive := func() error {
				res, err := ms.Run()
				if err != nil {
					return err
				}
				inc[p] = append(inc[p], res)
				return nil
			}
			for gen := 1; gen < len(meshRetractGens); gen++ {
				if errs[p] = ms.Append(meshRetractGens[gen][p]); errs[p] != nil {
					return
				}
			}
			if errs[p] = drive(); errs[p] != nil {
				return
			}
			for _, step := range meshRetractSteps {
				if errs[p] = ms.Retract(step[p]); errs[p] != nil {
					return
				}
				if errs[p] = drive(); errs[p] != nil {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for stage := 0; stage <= len(meshRetractSteps); stage++ {
		fresh := runMeshRetractOnce(t, cfg, stage)
		for p := 0; p < k; p++ {
			got := inc[p][stage]
			if !metrics.ExactMatch(got.Labels, fresh[p].Labels) {
				t.Errorf("stage %d party %d: labels %v, fresh mesh %v", stage, p, got.Labels, fresh[p].Labels)
			}
			if got.RegionQueries != fresh[p].RegionQueries {
				t.Errorf("stage %d party %d: %d region queries, fresh mesh %d", stage, p, got.RegionQueries, fresh[p].RegionQueries)
			}
			if stage > 0 && got.CachedCounts == 0 {
				t.Errorf("stage %d party %d: cache never hit across the retraction", stage, p)
			}
		}
	}
}

func TestMeshRetractionEquivalence(t *testing.T) {
	testMeshRetracted(t, testCfg(compare.EngineMasked))
}

func TestMeshRetractionEquivalenceParallel(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Parallel = 4
	testMeshRetracted(t, cfg)
}

// Mesh retraction misuse: invalid id lists fail locally with the shared
// typed error before any tombstone crosses an edge.
func TestMeshRetractMisuse(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	const k = 2
	mesh := NewLocalMesh(k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				for q, c := range mesh[p] {
					if q != p {
						c.Close()
					}
				}
			}()
			ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, meshRetractGens[0][p])
			if err != nil {
				errs[p] = err
				return
			}
			n := len(meshRetractGens[0][p])
			over := make([]int, n+1)
			for i := range over {
				over[i] = i
			}
			if err := ms.Retract(over); !errors.Is(err, spatial.ErrGenRange) {
				errs[p] = errExpected("over-retraction did not return ErrGenRange")
				return
			}
			if err := ms.Retract([]int{n}); !errors.Is(err, spatial.ErrGenRange) {
				errs[p] = errExpected("out-of-range Retract did not return ErrGenRange")
				return
			}
			// The guards left the session serviceable: party 0 retracts a
			// record, party 1 participates with an empty list, and the mesh
			// still clusters.
			ids := []int{}
			if p == 0 {
				ids = []int{0}
			}
			if err := ms.Retract(ids); err != nil {
				errs[p] = err
				return
			}
			if _, err := ms.Run(); err != nil {
				errs[p] = err
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Errorf("party %d: %v", p, err)
		}
	}
}
