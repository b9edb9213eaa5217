package multiparty

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
)

// The multiparty windowed-equivalence harness: a ring (or mesh) session
// sliding a fixed-width window — append one generation, expire the
// oldest, run — must produce labels and decision-level disclosure counts
// identical to a one-shot run over exactly the window contents, on every
// party, while the caches that survive the expiry keep contributing.

// ringWindowWidth is the live window width of the ring/mesh cases.
const ringWindowWidth = 2

// ringWindowGens is the shared record stream, one batch per generation
// (3-D records so a 3-party ring owns one column each).
var ringWindowGens = [][][]float64{
	{{1, 1, 1}, {2, 1, 1}, {9, 9, 9}, {9, 8, 9}},
	{{1, 2, 1}, {8, 9, 8}, {5, 5, 5}},
	{{2, 2, 2}, {9, 9, 8}, {8, 8, 6}},
	{{2, 2, 1}, {8, 8, 9}, {1, 1, 2}},
}

func ringWindowConcat(lo, hi int) [][]float64 {
	var out [][]float64
	for g := lo; g < hi; g++ {
		out = append(out, ringWindowGens[g]...)
	}
	return out
}

// runRingWindowed drives k concurrent RingSessions through a sliding
// window: fill (construct + append), run, then append+expire+run per
// slide.
func runRingWindowed(t *testing.T, cfg Config, k int) [][]*Result {
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
			rs, err := NewRingSession(parties[p], cfg, splitColumns(ringWindowGens[0], k)[p])
			if err != nil {
				errs[p] = err
				return
			}
			step := func(gen int, expire bool) error {
				if err := rs.Append(splitColumns(ringWindowGens[gen], k)[p]); err != nil {
					return err
				}
				if expire {
					if err := rs.Expire(1); err != nil {
						return err
					}
				}
				res, err := rs.Run()
				if err != nil {
					return err
				}
				out[p] = append(out[p], res)
				return nil
			}
			if errs[p] = step(1, false); errs[p] != nil {
				return
			}
			for gen := ringWindowWidth; gen < len(ringWindowGens); gen++ {
				if errs[p] = step(gen, true); errs[p] != nil {
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

func testRingWindowed(t *testing.T, cfg Config) {
	t.Helper()
	const k = 3
	inc := runRingWindowed(t, cfg, k)
	stages := len(ringWindowGens) - ringWindowWidth + 1
	for stage := 0; stage < stages; stage++ {
		fresh, err := runRing(t, cfg, splitColumns(ringWindowConcat(stage, stage+ringWindowWidth), k))
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
				t.Errorf("stage %d party %d: cache never hit across the expiry", stage, p)
			}
		}
	}
}

func TestRingWindowedEquivalence(t *testing.T) {
	testRingWindowed(t, testCfg(compare.EngineMasked))
}

func TestRingWindowedEquivalenceParallel(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Parallel = 4
	testRingWindowed(t, cfg)
}

func TestRingWindowedEquivalencePruningOff(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Pruning = core.PruneOff
	testRingWindowed(t, cfg)
}

// Ring expiry misuse: bad arguments fail locally on every party without
// touching the wire; an expire-everything window stays usable — after a
// refill the next Run labels exactly the refilled generation, as a fresh
// ring over it does; mismatched arguments across parties fail loudly in
// the tombstone circulation instead of silently diverging, and close the
// session for good.
func TestRingExpireMisuse(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	const k = 3
	parties := NewLocalRing(k)
	refilled := make([]*Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer parties[p].Next.Close()
			defer parties[p].Prev.Close()
			gen := func(g int) [][]float64 { return splitColumns(ringWindowGens[g], k)[p] }
			errs[p] = func() error {
				rs, err := NewRingSession(parties[p], cfg, gen(0))
				if err != nil {
					return err
				}
				// Local validation: no wire traffic, so one party's rejection
				// cannot wedge the others.
				if err := rs.Expire(0); err == nil {
					return errExpected("Expire(0) accepted")
				}
				if err := rs.Expire(2); err == nil {
					return errExpected("Expire beyond the live window accepted")
				}
				// A second call while one is in flight is turned away.
				var inFlight error
				rs.guard.Do(func() (bool, error) {
					_, inFlight = rs.Run()
					return false, nil
				})
				if !errors.Is(inFlight, core.ErrConcurrentRun) {
					return errExpected("concurrent Run: " + fmt.Sprint(inFlight))
				}
				if err := rs.Append(gen(1)); err != nil {
					return err
				}
				// Expiring every live generation leaves a valid empty window;
				// one more is an error, and a refill restores service.
				if err := rs.Expire(2); err != nil {
					return err
				}
				if err := rs.Expire(1); err == nil {
					return errExpected("Expire on an empty window accepted")
				}
				if err := rs.Append(gen(2)); err != nil {
					return err
				}
				if refilled[p], err = rs.Run(); err != nil {
					return err
				}
				if err := rs.Append(gen(3)); err != nil {
					return err
				}
				// Mismatched arguments: party 2 tries to expire both live
				// generations while the rest expire one. Every party must
				// fail, and must refuse to speak into the ring afterwards.
				gens := 1
				if p == 2 {
					gens = 2
				}
				if err := rs.Expire(gens); err == nil {
					return errExpected("mismatched Expire succeeded")
				}
				if _, err := rs.Run(); !errors.Is(err, core.ErrSessionClosed) {
					return errExpected("Run after a failed circulation: " + fmt.Sprint(err))
				}
				return nil
			}()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	fresh, err := runRing(t, cfg, splitColumns(ringWindowGens[2], k))
	if err != nil {
		t.Fatal(err)
	}
	for p := range fresh {
		if !metrics.ExactMatch(refilled[p].Labels, fresh[p].Labels) {
			t.Errorf("party %d: refilled window labels %v, fresh ring %v", p, refilled[p].Labels, fresh[p].Labels)
		}
	}
}

type errExpected string

func (e errExpected) Error() string { return string(e) }

// Mesh: every party holds complete records; one batch per party per
// generation.
var meshWindowGens = [][][][]float64{ // [gen][party]
	{{{1, 1}, {2, 1}}, {{1, 2}, {9, 8}}, {{2, 2}, {8, 9}}},
	{{{9, 9}}, {{5, 5}}, {{12, 2}}},
	{{{2, 3}}, {{8, 8}}, {{9, 7}}},
	{{{3, 2}}, {{7, 9}}, {{1, 3}}},
}

func meshWindowConcat(party, lo, hi int) [][]float64 {
	var out [][]float64
	for g := lo; g < hi; g++ {
		out = append(out, meshWindowGens[g][party]...)
	}
	return out
}

// runMeshWindowOnce runs the one-shot mesh protocol over one window.
func runMeshWindowOnce(t *testing.T, cfg Config, lo, hi int) []*HorizontalResult {
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
				HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, meshWindowConcat(p, lo, hi))
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

func testMeshWindowed(t *testing.T, cfg Config) {
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
			ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, meshWindowGens[0][p])
			if err != nil {
				errs[p] = err
				return
			}
			step := func(gen int, expire bool) error {
				if err := ms.Append(meshWindowGens[gen][p]); err != nil {
					return err
				}
				if expire {
					if err := ms.Expire(1); err != nil {
						return err
					}
				}
				res, err := ms.Run()
				if err != nil {
					return err
				}
				inc[p] = append(inc[p], res)
				return nil
			}
			if errs[p] = step(1, false); errs[p] != nil {
				return
			}
			for gen := ringWindowWidth; gen < len(meshWindowGens); gen++ {
				if errs[p] = step(gen, true); errs[p] != nil {
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
	stages := len(meshWindowGens) - ringWindowWidth + 1
	for stage := 0; stage < stages; stage++ {
		fresh := runMeshWindowOnce(t, cfg, stage, stage+ringWindowWidth)
		for p := 0; p < k; p++ {
			got := inc[p][stage]
			if !metrics.ExactMatch(got.Labels, fresh[p].Labels) {
				t.Errorf("stage %d party %d: labels %v, fresh mesh %v", stage, p, got.Labels, fresh[p].Labels)
			}
			if got.RegionQueries != fresh[p].RegionQueries {
				t.Errorf("stage %d party %d: %d region queries, fresh mesh %d", stage, p, got.RegionQueries, fresh[p].RegionQueries)
			}
			if stage > 0 && got.CachedCounts == 0 {
				t.Errorf("stage %d party %d: cache never hit across the expiry", stage, p)
			}
		}
	}
}

func TestMeshWindowedEquivalence(t *testing.T) {
	testMeshWindowed(t, testCfg(compare.EngineMasked))
}

func TestMeshWindowedEquivalenceParallel(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Parallel = 4
	testMeshWindowed(t, cfg)
}

// Mesh expiry misuse: mismatched arguments fail on every edge with the
// disagreement spelled out.
func TestMeshExpireMismatch(t *testing.T) {
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
			ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, meshWindowGens[0][p])
			if err != nil {
				errs[p] = err
				return
			}
			if err := ms.Expire(0); err == nil {
				errs[p] = errExpected("Expire(0) accepted")
				return
			}
			// A second call while one is in flight is turned away.
			var inFlight error
			ms.guard.Do(func() (bool, error) {
				_, inFlight = ms.Run()
				return false, nil
			})
			if !errors.Is(inFlight, core.ErrConcurrentRun) {
				errs[p] = errExpected("concurrent Run: " + fmt.Sprint(inFlight))
				return
			}
			if err := ms.Append(meshWindowGens[1][p]); err != nil {
				errs[p] = err
				return
			}
			err = ms.Expire(1 + p) // party 1 disagrees
			if err == nil {
				errs[p] = errExpected("mismatched Expire succeeded")
				return
			}
			if !strings.Contains(err.Error(), "expire") {
				errs[p] = err
				return
			}
			// The edges are desynchronised: the session refuses further use.
			if _, err := ms.Run(); !errors.Is(err, core.ErrSessionClosed) {
				errs[p] = errExpected("Run after a failed exchange: " + fmt.Sprint(err))
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
