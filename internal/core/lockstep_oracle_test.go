package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/transport"
)

// The lockstep differential: the same session lifecycle — cold Run, two
// Appends, Retract, a re-Run, Expire — runs once on the chunk exchange at
// every valid batching × packing (and W ∈ {1, 4} where batched) and once on
// the per-pair drivers it replaced (perpair_test.go), and everything a
// party can count must come out equal at every Run: labels, every Ledger
// class (PairDecisions and DotProducts included), SecureComparisons and
// CachedComparisons, on both sides. It does so for every candidate-set
// input (pruneInputs): the Eps grid, pruning off and the geometric
// fallback.

// pruneInputs are the candidate-set inputs the differentials run over: the
// Eps grid, pruning off, and the geometric fallback — grid pruning with
// Eps² beyond the dist² bound of the two-dimensional test domain
// (2·7² = 98) — the last two on the one-cell grid (CandidateGrid).
// Subtests name the input by sub; the Eps grid's keep their unsegmented
// names.
var pruneInputs = []struct {
	sub     string
	pruning PruneMode
	eps     float64
}{{"", PruneGrid, 2}, {"off/", PruneOff, 2}, {"fallback/", PruneGrid, 10}}

var lockstepOracleGens = [][][]float64{
	{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {6, 6}, {6, 5}, {5, 6}, {3, 3}},
	{{2, 1}, {7, 6}},
	{{0, 2}, {6, 7}, {4, 0}},
}

// lockstepFamily opens one side's session of a lockstep family over the
// lifecycle's first generation, on the chunk exchange or on the per-pair
// oracle, and knows how its initiator appends and its server answers.
type lockstepFamily struct {
	name     string
	open     func(conn transport.Conn, cfg Config, role Role, oracle bool) (*Session, error)
	appendA  func(sess *Session, gen int) error
	sourceOf func(gen int) [][]float64
}

func lockstepFamilies() []lockstepFamily {
	owners := func(gen int) [][]partition.Owner { return streamOwners(lockstepOracleGens[gen], gen) }
	return []lockstepFamily{
		{
			name: "vertical",
			open: func(conn transport.Conn, cfg Config, role Role, oracle bool) (*Session, error) {
				attrs := column(lockstepOracleGens[0], int(role))
				if oracle {
					return newPerPairVerticalSession(conn, cfg, role, attrs)
				}
				return NewVerticalSession(conn, cfg, role, attrs)
			},
			appendA:  func(sess *Session, gen int) error { return sess.Append(column(lockstepOracleGens[gen], 0)) },
			sourceOf: func(gen int) [][]float64 { return column(lockstepOracleGens[gen], 1) },
		},
		{
			name: "arbitrary",
			open: func(conn transport.Conn, cfg Config, role Role, oracle bool) (*Session, error) {
				if oracle {
					return newPerPairArbitrarySession(conn, cfg, role, lockstepOracleGens[0], owners(0))
				}
				return NewArbitrarySession(conn, cfg, role, lockstepOracleGens[0], owners(0))
			},
			appendA: func(sess *Session, gen int) error {
				return sess.AppendOwned(lockstepOracleGens[gen], owners(gen))
			},
			sourceOf: func(gen int) [][]float64 { return lockstepOracleGens[gen] },
		},
	}
}

// runLockstepLifecycle drives the lifecycle and returns each side's Results.
func runLockstepLifecycle(t *testing.T, fam lockstepFamily, cfg Config, oracle bool) (stages [2][]*Result) {
	t.Helper()
	var mu sync.Mutex
	record := func(side int, res *Result) {
		mu.Lock()
		stages[side] = append(stages[side], res)
		mu.Unlock()
	}
	ca, cb := transport.Pipe()
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, err := fam.open(ca, cfg, RoleAlice, oracle)
			if err != nil {
				return err
			}
			steps := []func() error{
				func() error { return nil }, // cold
				func() error { return fam.appendA(sess, 1) },
				func() error { return fam.appendA(sess, 2) },
				func() error { return sess.Retract([]int{1, 8}) },
				func() error { return nil }, // re-Run: everything cached
				func() error { return sess.Expire(1) },
			}
			for i, step := range steps {
				if err := step(); err != nil {
					return fmt.Errorf("step %d: %w", i, err)
				}
				res, err := sess.Run()
				if err != nil {
					return fmt.Errorf("run %d: %w", i, err)
				}
				record(0, res)
			}
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := fam.open(cb, cfg, RoleBob, oracle)
			if err != nil {
				return err
			}
			gen := 0
			sess.SetAppendSource(func(AppendRequest) ([][]float64, error) {
				gen++
				return fam.sourceOf(gen), nil
			})
			for {
				res, err := sess.Run()
				if errors.Is(err, ErrSessionClosed) {
					return nil
				}
				if err != nil {
					return err
				}
				record(1, res)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return stages
}

func TestLockstepMatchesPerPairOracle(t *testing.T) {
	type mode struct {
		batching BatchMode
		packing  PackMode
		w        int
	}
	modes := []mode{{BatchModeSequential, PackOff, 1}}
	for _, packing := range []PackMode{PackOff, PackSlots, PackFull} {
		for _, w := range []int{1, 4} {
			modes = append(modes, mode{BatchModeBatched, packing, w})
		}
	}
	for _, fam := range lockstepFamilies() {
		for _, in := range pruneInputs {
			oracleCfg := parallelCfg(compare.EngineMasked, 1, in.pruning)
			oracleCfg.Batching, oracleCfg.Eps = BatchModeSequential, in.eps
			want := runLockstepLifecycle(t, fam, oracleCfg, true)
			for _, m := range modes {
				t.Run(fmt.Sprintf("%s/%s%s/packing=%s/W=%d", fam.name, in.sub, m.batching, m.packing, m.w), func(t *testing.T) {
					cfg := parallelCfg(compare.EngineMasked, m.w, in.pruning)
					cfg.Batching, cfg.Packing, cfg.Eps = m.batching, m.packing, in.eps
					got := runLockstepLifecycle(t, fam, cfg, false)
					cached := int64(0)
					for side, role := range []Role{RoleAlice, RoleBob} {
						if len(got[side]) != len(want[side]) || len(got[side]) != 6 {
							t.Fatalf("%v: %d stages on the chunk exchange, %d per pair, want 6", role, len(got[side]), len(want[side]))
						}
						for stage := range got[side] {
							g, w := got[side][stage], want[side][stage]
							at := fmt.Sprintf("%v stage %d", role, stage)
							if !metrics.ExactMatch(g.Labels, w.Labels) || g.NumClusters != w.NumClusters {
								t.Errorf("%s: labels %v (%d clusters), per pair %v (%d)", at, g.Labels, g.NumClusters, w.Labels, w.NumClusters)
							}
							if g.Leakage != w.Leakage {
								t.Errorf("%s: ledger %v, per pair %v", at, g.Leakage, w.Leakage)
							}
							if g.SecureComparisons != w.SecureComparisons || g.CachedComparisons != w.CachedComparisons {
								t.Errorf("%s: %d secure + %d cached comparisons, per pair %d + %d", at,
									g.SecureComparisons, g.CachedComparisons, w.SecureComparisons, w.CachedComparisons)
							}
							cached += g.CachedComparisons
						}
					}
					if cached == 0 {
						t.Error("no stage answered anything from the cache: the lifecycle compared cold runs only")
					}
				})
			}
		}
	}
}

// TestArbitraryChunkFramePin pins what an arbitrary chunk puts on the wire
// at every packing: 2 adp.mp frames — Bob's mixed values, Alice's folded
// dot products — plus its comparison frames, 3 batched and 3 a pair under
// sequential batching. With 30 records and pruning off the 435 pairs are
// two chunks, every one of them holding pairs with mixed cells (owners
// alternate by row parity, so rows of opposite parity split both
// attributes); Bob learns one dot product per such pair.
func TestArbitraryChunkFramePin(t *testing.T) {
	const n = 30
	values := make([][]float64, n)
	for i := range values {
		values[i] = []float64{float64(i % 8), float64(i / 4)}
	}
	owners := streamOwners(values, 0)
	rows := make([]int, n)
	for j := range rows {
		rows[j] = j
	}
	chunks := packRows(rows, lockstepChunk)
	pairs, mixed := n*(n-1)/2, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (i+j)%2 == 1 {
				mixed++
			}
		}
	}
	if chunks < 2 {
		t.Fatalf("the fixture is %d chunk(s): want at least two", chunks)
	}
	for _, tc := range []struct {
		batching BatchMode
		packing  PackMode
	}{{BatchModeSequential, PackOff}, {BatchModeBatched, PackOff}, {BatchModeBatched, PackSlots}, {BatchModeBatched, PackFull}} {
		cfg := parallelCfg(compare.EngineMasked, 1, PruneOff)
		cfg.Batching, cfg.Packing = tc.batching, tc.packing
		ca, cb := transport.Pipe()
		ma := transport.NewMeter(ca)
		var ra, rb *Result
		err := transport.RunPair(ma, cb,
			func(transport.Conn) (err error) {
				ra, err = ArbitraryAlice(ma, cfg, values, owners)
				return err
			},
			func(c transport.Conn) (err error) {
				rb, err = ArbitraryBob(c, cfg, values, owners)
				return err
			})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.batching, tc.packing, err)
		}
		tags := ma.TagStats()
		wantCmp := int64(3 * chunks)
		if tc.batching == BatchModeSequential {
			wantCmp = int64(3 * pairs)
		}
		if got := tags["adp.mp"].Messages(); got != int64(2*chunks) {
			t.Errorf("%s/%s: %d adp.mp frames, want 2 a chunk (%d)", tc.batching, tc.packing, got, 2*chunks)
		}
		if got := tags["adp.cmp"].Messages(); got != wantCmp {
			t.Errorf("%s/%s: %d adp.cmp frames, want %d", tc.batching, tc.packing, got, wantCmp)
		}
		if ra.SecureComparisons != int64(pairs) || rb.Leakage.DotProducts != mixed || ra.Leakage.DotProducts != 0 {
			t.Errorf("%s/%s: %d comparisons, Bob %d / Alice %d dot products; want %d, %d, 0", tc.batching, tc.packing,
				ra.SecureComparisons, rb.Leakage.DotProducts, ra.Leakage.DotProducts, pairs, mixed)
		}
	}
}
