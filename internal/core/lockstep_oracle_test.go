package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/dataset"
	"repro/internal/dbscan"
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
// CachedComparisons, on both sides — and the counts must also equal the
// planner's plaintext replay (replayLockstepLifecycle). It does
// so for every candidate-set input (pruneInputs): the Eps grid, pruning
// off and the geometric fallback, on two inputs: a small one the planner
// settles in one wave, and lockstepWaveGens, which takes several.

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

// lockstepWaveGens is a lifecycle input whose cold Run takes two
// waves or more of the planner on the Eps grid and with pruning off: 48
// points in three loose blobs on the 8 × 8 grid, then two small
// generations. (On the fallback every pair is within Eps, and phase 1's
// one wave settles the labels.)
func lockstepWaveGens() [][][]float64 {
	d, _ := dataset.Quantize(dataset.Blobs(48, 3, 2, 47), 8)
	return [][][]float64{d.Points, {{2, 1}, {7, 6}}, {{0, 2}, {6, 7}, {4, 0}}}
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

func lockstepFamilies(gens [][][]float64) []lockstepFamily {
	owners := func(gen int) [][]partition.Owner { return streamOwners(gens[gen], gen) }
	return []lockstepFamily{
		{
			name: "vertical",
			open: func(conn transport.Conn, cfg Config, role Role, oracle bool) (*Session, error) {
				attrs := column(gens[0], int(role))
				if oracle {
					return newPerPairVerticalSession(conn, cfg, role, attrs)
				}
				return NewVerticalSession(conn, cfg, role, attrs)
			},
			appendA:  func(sess *Session, gen int) error { return sess.Append(column(gens[gen], 0)) },
			sourceOf: func(gen int) [][]float64 { return column(gens[gen], 1) },
		},
		{
			name: "arbitrary",
			open: func(conn transport.Conn, cfg Config, role Role, oracle bool) (*Session, error) {
				if oracle {
					return newPerPairArbitrarySession(conn, cfg, role, gens[0], owners(0))
				}
				return NewArbitrarySession(conn, cfg, role, gens[0], owners(0))
			},
			appendA: func(sess *Session, gen int) error {
				return sess.AppendOwned(gens[gen], owners(gen))
			},
			sourceOf: func(gen int) [][]float64 { return gens[gen] },
		},
	}
}

// lifecycleStage is one stage of a lifecycle replayed in plaintext: the
// Run's replay, the live records (whole) and a global id for each, and
// whether a pair — in the stage's live numbering — has mixed cells under
// the records' owners (streamOwners).
type lifecycleStage struct {
	run   lockstepReplay
	live  [][]float64
	ids   []int
	mixed func(pr [2]int) bool
}

// replayLockstepLifecycle replays runLockstepLifecycle's Runs over gens in
// plaintext (replayRun), tracking the live records, their owners, their
// generations and the pair cache through the ops.
func replayLockstepLifecycle(t *testing.T, cfg Config, gens [][][]float64, ops []lifecycleOp) (stages []lifecycleStage) {
	t.Helper()
	var live [][]float64
	var owners [][]partition.Owner
	var gen, ids []int // each live record's generation and global id
	next, dead := 0, 0
	add := func(g int) {
		live = append(live, gens[g]...)
		owners = append(owners, streamOwners(gens[g], g)...)
		for range gens[g] {
			gen, ids = append(gen, g), append(ids, next)
			next++
		}
	}
	cache := NewPairCache()
	add(0)
	for _, op := range ops {
		if op.append > 0 {
			add(op.append)
		}
		if op.retract != nil {
			live, owners = CompactRows(live, op.retract), CompactRows(owners, op.retract)
			gen, ids = CompactRows(gen, op.retract), CompactRows(ids, op.retract)
			cache.Retract(op.retract)
		}
		if op.expire > 0 {
			dead += op.expire
			rows := 0
			for rows < len(gen) && gen[rows] < dead {
				rows++
			}
			live, owners, gen, ids = live[rows:], owners[rows:], gen[rows:], ids[rows:]
			cache.Expire(rows)
		}
		// CompactRows compacts in place: every stage keeps its own copies.
		own := slices.Clone(owners)
		stages = append(stages, lifecycleStage{
			run:   replayRun(t, cfg, live, cache),
			live:  slices.Clone(live),
			ids:   slices.Clone(ids),
			mixed: func(pr [2]int) bool { return !slices.Equal(own[pr[0]], own[pr[1]]) },
		})
	}
	return stages
}

// lifecycleOp is one stage of a scripted lifecycle: what the initiating
// side does before the stage's Run — append generation append (0: none),
// retract the live ids retract, expire expire generations — in that order.
type lifecycleOp struct {
	append  int
	retract []int
	expire  int
}

// lockstepLifecycle is the differential's lifecycle: a cold Run, two
// Appends, a Retract, a re-Run that the cache answers, and an Expire.
var lockstepLifecycle = []lifecycleOp{{}, {append: 1}, {append: 2}, {retract: []int{1, 8}}, {}, {expire: 1}}

// runLockstepLifecycle drives the lifecycle ops and returns each side's
// Results, one a stage.
func runLockstepLifecycle(t *testing.T, fam lockstepFamily, cfg Config, oracle bool, ops []lifecycleOp) (stages [2][]*Result) {
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
			for i, op := range ops {
				if op.append > 0 {
					err = fam.appendA(sess, op.append)
				}
				if err == nil && op.retract != nil {
					err = sess.Retract(op.retract)
				}
				if err == nil && op.expire > 0 {
					err = sess.Expire(op.expire)
				}
				if err != nil {
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
	for _, input := range []struct {
		sub  string
		gens [][][]float64
	}{{"", lockstepOracleGens}, {"waves/", lockstepWaveGens()}} {
		for _, fam := range lockstepFamilies(input.gens) {
			for _, in := range pruneInputs {
				oracleCfg := parallelCfg(compare.EngineMasked, 1, in.pruning)
				oracleCfg.Batching, oracleCfg.Eps = BatchModeSequential, in.eps
				want := runLockstepLifecycle(t, fam, oracleCfg, true, lockstepLifecycle)
				for _, m := range modes {
					t.Run(fmt.Sprintf("%s/%s%s%s/packing=%s/W=%d", fam.name, input.sub, in.sub, m.batching, m.packing, m.w), func(t *testing.T) {
						cfg := parallelCfg(compare.EngineMasked, m.w, in.pruning)
						cfg.Batching, cfg.Packing, cfg.Eps = m.batching, m.packing, in.eps
						got := runLockstepLifecycle(t, fam, cfg, false, lockstepLifecycle)
						checkLockstepLifecycle(t, got, want)
						replay := replayLockstepLifecycle(t, cfg, input.gens, lockstepLifecycle)
						if input.sub != "" && in.sub != "fallback/" && len(replay[0].run.waves) < 2 {
							t.Fatalf("the cold Run replays as %d wave(s): the input takes one", len(replay[0].run.waves))
						}
						for stage, st := range replay {
							r := st.run
							wantA := Ledger{PairDecisions: r.pairDecisions()}
							wantB := wantA
							if fam.name == "arbitrary" {
								wantB.DotProducts = r.count(st.mixed)
							}
							for side, wl := range []Ledger{wantA, wantB} {
								g, role := got[side][stage], Role(side)
								if l := g.Leakage.NonIndex(); l != wl || g.SecureComparisons != int64(r.decided()) || g.CachedComparisons != int64(len(r.cached)) {
									t.Errorf("%v stage %d: ledger %v, %d secure + %d cached comparisons; the replay %v, %d + %d",
										role, stage, l, g.SecureComparisons, g.CachedComparisons, wl, r.decided(), len(r.cached))
								}
							}
						}
					})
				}
			}
		}
	}
}

// checkLockstepLifecycle holds the chunk exchange's lifecycle to the
// per-pair drivers' stage by stage: labels, every Ledger class,
// SecureComparisons and CachedComparisons on both sides, with the cache
// answering something somewhere.
func checkLockstepLifecycle(t *testing.T, got, want [2][]*Result) {
	t.Helper()
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
}

// TestArbitraryChunkFramePin pins what an arbitrary chunk puts on the wire
// at every packing: 2 adp.mp frames — Bob's mixed values, Alice's folded
// dot products — when it holds a pair with mixed cells, plus its
// comparison frames, 3 batched and 3 a pair under sequential batching.
// With 30 records and pruning off the 435 pairs are more than one chunk,
// so the planner asks in several waves, and the totals are sums over the
// chunks of the waves its plaintext replay names (replayRun). Owners
// alternate by row parity, so rows of opposite parity split both
// attributes; Bob learns one dot product per such pair decided.
func TestArbitraryChunkFramePin(t *testing.T) {
	const n = 30
	values := make([][]float64, n)
	for i := range values {
		values[i] = []float64{float64(i % 8), float64(i / 4)}
	}
	owners := streamOwners(values, 0)
	mixed := func(pr [2]int) bool { return (pr[0]+pr[1])%2 == 1 }
	want := replayRun(t, parallelCfg(compare.EngineMasked, 1, PruneOff), values, NewPairCache())
	chunks, mixedChunks := want.chunks(), 0
	for _, wave := range want.waves {
		for _, chunk := range waveChunks(wave, want.bound) {
			if slices.ContainsFunc(chunk, mixed) {
				mixedChunks++
			}
		}
	}
	pairs, dots := want.decided(), want.count(mixed)
	if len(want.waves) < 2 || mixedChunks < 2 {
		t.Fatalf("the fixture is %d waves, %d chunks with mixed pairs: want at least two of each", len(want.waves), mixedChunks)
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
		if got := tags["adp.mp"].Messages(); got != int64(2*mixedChunks) {
			t.Errorf("%s/%s: %d adp.mp frames, want 2 a chunk with mixed pairs (%d)", tc.batching, tc.packing, got, 2*mixedChunks)
		}
		if got := tags["adp.cmp"].Messages(); got != wantCmp {
			t.Errorf("%s/%s: %d adp.cmp frames, want %d", tc.batching, tc.packing, got, wantCmp)
		}
		if ra.SecureComparisons != int64(pairs) || rb.Leakage.DotProducts != dots || ra.Leakage.DotProducts != 0 {
			t.Errorf("%s/%s: %d comparisons, Bob %d / Alice %d dot products; want %d, %d, 0", tc.batching, tc.packing,
				ra.SecureComparisons, rb.Leakage.DotProducts, ra.Leakage.DotProducts, pairs, dots)
		}
	}
}

// TestLockstepLifecycleAcrossWaves runs a streaming lifecycle — Run,
// Append, Expire, Retract, each followed by a Run — on an input whose
// Runs take several waves of the planner, for both lockstep families at
// W ∈ {1, 4}. Every Run must give plain DBSCAN's labels over the live
// records; every Run's comparisons must be the planner replay's; and the
// comparisons summed over the lifecycle must not pass the all-pairs count
// — the record pairs ever live together at a Run, which the driver that
// decided every pair once compared — though the Runs after the Expire and
// the Retract ask old pairs that earlier Runs left undecided and the
// remaps kept undecided.
func TestLockstepLifecycleAcrossWaves(t *testing.T) {
	blobs := func(seed int64) [][]float64 {
		d, _ := dataset.Quantize(dataset.Blobs(50, 3, 2, seed), 8)
		return d.Points
	}
	gens := [][][]float64{blobs(71), blobs(72)}
	ops := []lifecycleOp{{}, {append: 1}, {expire: 1}, {retract: []int{0, 7, 19, 33}}}
	for _, fam := range lockstepFamilies(gens) {
		for _, w := range []int{1, 4} {
			at := fmt.Sprintf("%s W=%d", fam.name, w)
			cfg := parallelCfg(compare.EngineMasked, w, PruneOff)
			got := runLockstepLifecycle(t, fam, cfg, false, ops)
			replay := replayLockstepLifecycle(t, cfg, gens, ops)
			normal, err := cfg.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			epsSq, err := normal.epsSquared()
			if err != nil {
				t.Fatal(err)
			}
			if waves := len(replay[0].run.waves); waves < 2 {
				t.Fatalf("%s: the cold Run replays as %d wave(s)", at, waves)
			}
			seen := map[[2]int]bool{}
			compared, old := int64(0), int64(0)
			for stage, st := range replay {
				enc, err := normal.EncodePoints(st.live)
				if err != nil {
					t.Fatal(err)
				}
				want, err := dbscan.ClusterInt(enc, epsSq, cfg.MinPts)
				if err != nil {
					t.Fatal(err)
				}
				fresh := 0
				for j := range st.ids {
					for i := 0; i < j; i++ {
						if pr := [2]int{st.ids[i], st.ids[j]}; !seen[pr] {
							seen[pr] = true
							fresh++
						}
					}
				}
				for side, res := range []*Result{got[0][stage], got[1][stage]} {
					if !metrics.ExactMatch(res.Labels, want.Labels) || res.NumClusters != want.NumClusters {
						t.Errorf("%s stage %d side %d: labels %v (%d clusters), DBSCAN %v (%d)",
							at, stage, side, res.Labels, res.NumClusters, want.Labels, want.NumClusters)
					}
					if res.SecureComparisons != int64(st.run.decided()) {
						t.Errorf("%s stage %d side %d: %d comparisons, the replay %d", at, stage, side, res.SecureComparisons, st.run.decided())
					}
				}
				n := got[0][stage].SecureComparisons
				compared += n
				old += max(0, n-int64(fresh))
			}
			if compared > int64(len(seen)) {
				t.Errorf("%s: %d comparisons over the lifecycle, all pairs %d", at, compared, len(seen))
			}
			if old == 0 {
				t.Errorf("%s: no Run asked a pair an earlier Run had left undecided", at)
			}
			t.Logf("%s: %d comparisons over the lifecycle (at least %d of old pairs), all pairs %d", at, compared, old, len(seen))
		}
	}
}
