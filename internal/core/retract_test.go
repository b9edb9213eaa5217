package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// The retraction-equivalence harness. A streaming session deletes
// individual live records (point tombstones masking index slots in
// place), then re-clusters. The bar mirrors the windowed harness: every
// stage must be observably identical to a fresh session over exactly the
// surviving points — same labels on both sides, byte-identical non-index
// Ledger classes (enhanced keeps its relaxed shrink-only bound) — while
// the retracting runs issue strictly fewer secure comparisons than a
// per-retraction rebuild wherever a cache can legally survive the
// deletion. Where it cannot (the enhanced core-bit cache: removing
// points can flip a true bit false), the harness asserts zero cross-run
// reuse instead — a surviving stale bit would be a correctness bug, not
// an optimization.
//
// The enhanced family's cost bar depends on pruning. With pruning off
// the selection runs over the live peer count, which retraction
// decrements exactly, so the retracting run must cost precisely what a
// fresh rebuild over the survivors costs. With pruning on, a masked slot
// keeps its padded footprint inside the disclosed index and answers as a
// maximal-distance dummy (per-query wire sizes never change — that
// silence is the privacy property), so the retracting selection can pay
// for dummy participation a fresh session's smaller index never sees:
// the harness bounds the cost from below by the fresh baseline and
// pins cross-run cache reuse to the baseline's (intra-run) hits.
//
// Retractions are confined to each side's newest generation so the
// per-generation count segments of the older generations legally
// survive; the harness's strictly-fewer bar is what makes a retraction
// cheaper than tearing the session down.

// retractStep is one retraction exchange: the initiating party's ids and
// (for the horizontal families, where each party owns its rows) the
// serving party's own ids, both in the current live numbering.
type retractStep struct {
	initIDs []int
	srcIDs  []int
}

// retractCase is one family bound to generation batches and a scripted
// retraction sequence.
type retractCase struct {
	name     string
	enhanced bool
	gens     int
	newSess  func(conn transport.Conn, cfg Config, role Role) (*Session, error)
	// appendGen appends generation gen (1 ≤ gen < gens) on the
	// initiating side while the stream is filling.
	appendGen func(sess *Session, gen int) error
	// sourceB answers the serving side's append requests in gen order.
	sourceB func() AppendSource
	steps   []retractStep
	// srcB supplies the serving side's own retraction ids in step order
	// (horizontal families only; nil for the shared-record families).
	srcB func() RetractSource
	// fresh runs the one-shot protocol over exactly the points surviving
	// the first `stage` retraction steps.
	fresh func(t *testing.T, cfg Config, stage int) eqOutcome
	tweak func(Config) Config
}

// dropIDs removes the strictly ascending ids from rows — the survivor
// list a retraction leaves, in its compacted numbering.
func dropIDs[T any](rows []T, ids []int) []T {
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

// survivorsAt precomputes the per-stage survivor snapshots of one
// party's rows under its scripted id lists (stage 0 = nothing retracted).
func survivorsAt[T any](full []T, perStep [][]int) [][]T {
	at := [][]T{full}
	for _, ids := range perStep {
		at = append(at, dropIDs(at[len(at)-1], ids))
	}
	return at
}

// retractHorizontalCase builds the basic or enhanced horizontal case.
// Each generation keeps both parties' clusters alive around (0..2) and
// (5..7); every retraction targets the newest generation, so the older
// generations' cached count segments survive on both sides. The enhanced
// variant interleaves the parties and raises MinPts so core bits are
// decided over the network.
func retractHorizontalCase(name string, enhanced bool) retractCase {
	aliceGens := [][][]float64{
		{{0, 0}, {1, 1}, {0, 1}},
		{{2, 0}, {0, 2}, {6, 6}},
		{{5, 5}, {7, 7}, {1, 0}, {3, 4}},
	}
	bobGens := [][][]float64{
		{{1, 0}, {6, 7}},
		{{2, 3}, {5, 6}},
		{{5, 7}, {2, 2}, {4, 0}},
	}
	// Step ids are in the live numbering current at that step: step 2's
	// ids already account for step 1's compaction.
	steps := []retractStep{
		{initIDs: []int{7, 9}, srcIDs: []int{6}},
		{initIDs: []int{6}, srcIDs: []int{5}},
	}
	var tweak func(Config) Config
	if enhanced {
		aliceGens = [][][]float64{
			{{0, 0}, {1, 1}, {3, 4}},
			{{2, 2}, {6, 6}},
			{{5, 5}, {0, 2}, {7, 7}},
		}
		bobGens = [][][]float64{
			{{1, 0}, {0, 1}, {4, 3}},
			{{2, 1}, {6, 7}},
			{{6, 5}, {1, 2}, {0, 0}},
		}
		steps = []retractStep{
			{initIDs: []int{7}, srcIDs: []int{7}},
			{initIDs: []int{6}, srcIDs: []int{5}},
		}
		tweak = func(cfg Config) Config {
			cfg.MinPts = 4
			return cfg
		}
	}
	newSess, oneA, oneB := NewHorizontalSession, HorizontalAlice, HorizontalBob
	if enhanced {
		newSess, oneA, oneB = NewEnhancedHorizontalSession, EnhancedHorizontalAlice, EnhancedHorizontalBob
	}
	initPer, srcPer := make([][]int, len(steps)), make([][]int, len(steps))
	for i, st := range steps {
		initPer[i], srcPer[i] = st.initIDs, st.srcIDs
	}
	aliceAt := survivorsAt(concatGens(aliceGens, 0, len(aliceGens)), initPer)
	bobAt := survivorsAt(concatGens(bobGens, 0, len(bobGens)), srcPer)
	return retractCase{
		name:     name,
		enhanced: enhanced,
		gens:     len(aliceGens),
		newSess: func(conn transport.Conn, cfg Config, role Role) (*Session, error) {
			pts := aliceGens[0]
			if role == RoleBob {
				pts = bobGens[0]
			}
			return newSess(conn, cfg, role, pts)
		},
		appendGen: func(sess *Session, gen int) error { return sess.Append(aliceGens[gen]) },
		sourceB: func() AppendSource {
			gen := 1
			return func(req AppendRequest) ([][]float64, error) {
				b := bobGens[gen]
				gen++
				return b, nil
			}
		},
		steps: steps,
		srcB: func() RetractSource {
			step := 0
			return func(req RetractRequest) ([]int, error) {
				ids := steps[step].srcIDs
				step++
				return ids, nil
			}
		},
		fresh: func(t *testing.T, cfg Config, stage int) eqOutcome {
			a, b := aliceAt[stage], bobAt[stage]
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return oneA(c, cfg, a) },
				func(c transport.Conn) (*Result, error) { return oneB(c, cfg, b) })
		},
		tweak: tweak,
	}
}

// retractRowGens is the shared record stream of the vertical and
// arbitrary retraction cases, one batch per generation.
var retractRowGens = [][][]float64{
	{{0, 0}, {1, 0}, {0, 1}, {6, 6}},
	{{1, 1}, {6, 5}, {5, 6}},
	{{2, 1}, {7, 6}, {3, 3}, {0, 2}},
}

// retractRowSteps targets the newest generation of retractRowGens; the
// records are shared, so the initiating party's ids bind both sides.
var retractRowSteps = []retractStep{
	{initIDs: []int{8, 10}},
	{initIDs: []int{8}},
}

func retractRowSurvivors() [][][]float64 {
	perStep := make([][]int, len(retractRowSteps))
	for i, st := range retractRowSteps {
		perStep[i] = st.initIDs
	}
	return survivorsAt(concatGens(retractRowGens, 0, len(retractRowGens)), perStep)
}

func retractVerticalCase() retractCase {
	rowsAt := retractRowSurvivors()
	return retractCase{
		name: "vertical",
		gens: len(retractRowGens),
		newSess: func(conn transport.Conn, cfg Config, role Role) (*Session, error) {
			col := 0
			if role == RoleBob {
				col = 1
			}
			return NewVerticalSession(conn, cfg, role, column(retractRowGens[0], col))
		},
		appendGen: func(sess *Session, gen int) error {
			return sess.Append(column(retractRowGens[gen], 0))
		},
		sourceB: func() AppendSource {
			gen := 1
			return func(req AppendRequest) ([][]float64, error) {
				b := column(retractRowGens[gen], 1)
				gen++
				return b, nil
			}
		},
		steps: retractRowSteps,
		fresh: func(t *testing.T, cfg Config, stage int) eqOutcome {
			rows := rowsAt[stage]
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return VerticalAlice(c, cfg, column(rows, 0)) },
				func(c transport.Conn) (*Result, error) { return VerticalBob(c, cfg, column(rows, 1)) })
		},
	}
}

func retractArbitraryCase() retractCase {
	genOwners := make([][][]partition.Owner, len(retractRowGens))
	for g := range retractRowGens {
		genOwners[g] = streamOwners(retractRowGens[g], g)
	}
	var ownersFull [][]partition.Owner
	for _, o := range genOwners {
		ownersFull = append(ownersFull, o...)
	}
	perStep := make([][]int, len(retractRowSteps))
	for i, st := range retractRowSteps {
		perStep[i] = st.initIDs
	}
	rowsAt := retractRowSurvivors()
	ownersAt := survivorsAt(ownersFull, perStep)
	return retractCase{
		name: "arbitrary",
		gens: len(retractRowGens),
		newSess: func(conn transport.Conn, cfg Config, role Role) (*Session, error) {
			return NewArbitrarySession(conn, cfg, role, retractRowGens[0], genOwners[0])
		},
		appendGen: func(sess *Session, gen int) error {
			return sess.AppendOwned(retractRowGens[gen], genOwners[gen])
		},
		sourceB: func() AppendSource {
			gen := 1
			return func(req AppendRequest) ([][]float64, error) {
				b := retractRowGens[gen]
				gen++
				return b, nil
			}
		},
		steps: retractRowSteps,
		fresh: func(t *testing.T, cfg Config, stage int) eqOutcome {
			rows, owners := rowsAt[stage], ownersAt[stage]
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return ArbitraryAlice(c, cfg, rows, owners) },
				func(c transport.Conn) (*Result, error) { return ArbitraryBob(c, cfg, rows, owners) })
		},
	}
}

func retractCases() []retractCase {
	return []retractCase{
		retractHorizontalCase("horizontal", false),
		retractHorizontalCase("enhanced", true),
		retractVerticalCase(),
		retractArbitraryCase(),
	}
}

// runRetracted drives one retracting session pair: fill the stream
// (construct + appends), run, then retract + run per step.
func runRetracted(t *testing.T, rc retractCase, cfg Config) streamOutcome {
	t.Helper()
	ca, cb := transport.Pipe()
	var mu sync.Mutex
	var out streamOutcome
	steps := len(rc.steps)
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, err := rc.newSess(ca, cfg, RoleAlice)
			if err != nil {
				return err
			}
			drive := func() error {
				r, err := sess.Run()
				if err != nil {
					return err
				}
				mu.Lock()
				out.resA = append(out.resA, r)
				mu.Unlock()
				return nil
			}
			for gen := 1; gen < rc.gens; gen++ {
				if err := rc.appendGen(sess, gen); err != nil {
					return err
				}
			}
			if err := drive(); err != nil {
				return err
			}
			for _, st := range rc.steps {
				if err := sess.Retract(st.initIDs); err != nil {
					return err
				}
				if err := drive(); err != nil {
					return err
				}
			}
			if got := sess.Retracts(); got != steps {
				t.Errorf("initiating session absorbed %d retractions, want %d", got, steps)
			}
			mu.Lock()
			out.setupA = sess.SetupLeakage()
			mu.Unlock()
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := rc.newSess(cb, cfg, RoleBob)
			if err != nil {
				return err
			}
			sess.SetAppendSource(rc.sourceB())
			if rc.srcB != nil {
				sess.SetRetractSource(rc.srcB())
			}
			for {
				r, err := sess.Run()
				if errors.Is(err, ErrSessionClosed) {
					if got := sess.Retracts(); got != steps {
						t.Errorf("serving session absorbed %d retractions, want %d", got, steps)
					}
					mu.Lock()
					out.setupB = sess.SetupLeakage()
					mu.Unlock()
					return nil
				}
				if err != nil {
					return err
				}
				mu.Lock()
				out.resB = append(out.resB, r)
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertRetractStage checks one retraction stage against its
// fresh-session baseline over exactly the surviving points.
func assertRetractStage(t *testing.T, rc retractCase, pruneOn bool, stage int, inc [2]*Result, fresh eqOutcome) {
	t.Helper()
	if !metrics.ExactMatch(inc[0].Labels, fresh.ra.Labels) {
		t.Errorf("stage %d: alice labels %v, fresh survivors %v", stage, inc[0].Labels, fresh.ra.Labels)
	}
	if !metrics.ExactMatch(inc[1].Labels, fresh.rb.Labels) {
		t.Errorf("stage %d: bob labels %v, fresh survivors %v", stage, inc[1].Labels, fresh.rb.Labels)
	}
	if inc[0].NumClusters != fresh.ra.NumClusters || inc[1].NumClusters != fresh.rb.NumClusters {
		t.Errorf("stage %d: cluster counts diverge", stage)
	}
	for side, pair := range map[string][2]*Result{"alice": {inc[0], fresh.ra}, "bob": {inc[1], fresh.rb}} {
		incL, freshL := pair[0].Leakage, pair[1].Leakage
		if rc.enhanced {
			if pruneOn {
				// Masked slots keep answering as maximal-distance dummies
				// inside the padded index, so the retracting selection never
				// discloses fewer bits than a fresh session over the smaller
				// survivor index — but the extra participation is dummies
				// only, never a cached decision.
				if incL.OrderBits < freshL.OrderBits || incL.CoreBits < freshL.CoreBits {
					t.Errorf("stage %d %s: enhanced disclosure undercut the fresh baseline: retracting %v, fresh %v", stage, side, incL, freshL)
				}
			} else if incL.NonIndex() != freshL.NonIndex() {
				t.Errorf("stage %d %s: non-index ledgers diverge: retracting %v, fresh %v", stage, side, incL, freshL)
			}
		} else if incL.NonIndex() != freshL.NonIndex() {
			t.Errorf("stage %d %s: non-index ledgers diverge: retracting %v, fresh %v", stage, side, incL, freshL)
		}
	}
	if stage == 0 {
		return
	}
	if rc.enhanced {
		// The retraction cleared the core-bit cache — a deletion can flip
		// a true bit false, so a surviving bit would be unsound. Cross-run
		// reuse must therefore be exactly zero: cached hits match a fresh
		// run's (intra-run) hits, and the secure-comparison cost never
		// drops below the fresh rebuild's. With pruning off the live peer
		// count is the whole story, so the cost is exactly the rebuild's.
		for side, pair := range map[string][2]*Result{"alice": {inc[0], fresh.ra}, "bob": {inc[1], fresh.rb}} {
			if pair[0].CachedComparisons != pair[1].CachedComparisons {
				t.Errorf("stage %d %s: retracting enhanced run reused %d cached comparisons, fresh rebuild %d — retraction must leave no cross-run cache",
					stage, side, pair[0].CachedComparisons, pair[1].CachedComparisons)
			}
			if pruneOn {
				if pair[0].SecureComparisons < pair[1].SecureComparisons {
					t.Errorf("stage %d %s: retracting enhanced run cost %d secure comparisons, fresh rebuild %d — a cheaper run means a stale decision survived",
						stage, side, pair[0].SecureComparisons, pair[1].SecureComparisons)
				}
			} else if pair[0].SecureComparisons != pair[1].SecureComparisons {
				t.Errorf("stage %d %s: retracting enhanced run cost %d secure comparisons, fresh rebuild %d — want exactly equal without pruning",
					stage, side, pair[0].SecureComparisons, pair[1].SecureComparisons)
			}
		}
		return
	}
	// The untouched generations' cache entries must make the retracting
	// run strictly cheaper than rebuilding over the survivors.
	freshCmp := fresh.ra.SecureComparisons + fresh.rb.SecureComparisons
	incCmp := inc[0].SecureComparisons + inc[1].SecureComparisons
	if incCmp >= freshCmp {
		t.Errorf("stage %d: retracting run used %d secure comparisons, rebuild %d — want strictly fewer", stage, incCmp, freshCmp)
	}
	if inc[0].CachedComparisons == 0 || inc[1].CachedComparisons == 0 {
		t.Errorf("stage %d: cache hits alice=%d bob=%d — want both positive",
			stage, inc[0].CachedComparisons, inc[1].CachedComparisons)
	}
}

func runRetractedCase(t *testing.T, rc retractCase, cfg Config) {
	t.Helper()
	if rc.tweak != nil {
		cfg = rc.tweak(cfg)
	}
	out := runRetracted(t, rc, cfg)
	stages := len(rc.steps) + 1
	if len(out.resA) != stages || len(out.resB) != stages {
		t.Fatalf("retracting session produced %d/%d results, want %d", len(out.resA), len(out.resB), stages)
	}
	pruneOn := cfg.Pruning != PruneOff
	for stage := 0; stage < stages; stage++ {
		fresh := rc.fresh(t, cfg, stage)
		assertRetractStage(t, rc, pruneOn, stage, [2]*Result{out.resA[stage], out.resB[stage]}, fresh)
	}
	// The point-tombstone disclosure is first-class Ledger state on both
	// sides: one IndexRetractions entry per retracted record (per party's
	// records for the horizontal families, shared rows otherwise).
	want := 0
	for _, st := range rc.steps {
		want += len(st.initIDs) + len(st.srcIDs)
	}
	if out.setupA.IndexRetractions != want || out.setupB.IndexRetractions != want {
		t.Errorf("retractions recorded %d/%d IndexRetractions, want %d",
			out.setupA.IndexRetractions, out.setupB.IndexRetractions, want)
	}
}

func TestRetractionEquivalence(t *testing.T) {
	for _, rc := range retractCases() {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			runRetractedCase(t, rc, testCfg(compare.EngineMasked))
		})
	}
}

func TestRetractionEquivalenceParallel(t *testing.T) {
	for _, rc := range retractCases() {
		rc := rc
		t.Run(rc.name+"/W=4", func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			cfg.Parallel = 4
			runRetractedCase(t, rc, cfg)
		})
	}
}

func TestRetractionEquivalencePruningOff(t *testing.T) {
	cases := []retractCase{
		retractHorizontalCase("horizontal", false),
		retractHorizontalCase("enhanced", true),
		retractVerticalCase(),
	}
	for _, rc := range cases {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			cfg.Pruning = PruneOff
			runRetractedCase(t, rc, cfg)
		})
	}
}

// Misuse coverage for the retract op: role, lifecycle, argument, and
// concurrency guards return the session's typed errors without poisoning
// the session.
func TestRetractMisuse(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	ca, cb := transport.Pipe()
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, err := NewHorizontalSession(ca, cfg, RoleAlice, testAlicePts)
			if err != nil {
				return err
			}
			// Retract while a Run/Append/Expire/Close is in flight.
			sess.guard.running.Store(true)
			if err := sess.Retract([]int{0}); !errors.Is(err, ErrConcurrentRun) {
				t.Errorf("concurrent Retract: %v, want ErrConcurrentRun", err)
			}
			sess.guard.running.Store(false)
			// Argument validation fails locally — typed, and before any
			// frame is sent, so the session is not poisoned.
			over := make([]int, len(testAlicePts)+1)
			for i := range over {
				over[i] = i
			}
			if err := sess.Retract(over); !errors.Is(err, spatial.ErrGenRange) {
				t.Errorf("over-retraction: %v, want ErrGenRange", err)
			}
			if err := sess.Retract([]int{len(testAlicePts)}); !errors.Is(err, spatial.ErrGenRange) {
				t.Errorf("out-of-range Retract: %v, want ErrGenRange", err)
			}
			if err := sess.Retract([]int{2, 1}); err == nil {
				t.Error("unsorted Retract accepted")
			}
			if err := sess.Retract([]int{1, 1}); err == nil {
				t.Error("duplicated Retract accepted")
			}
			// The guards left the session serviceable.
			if _, err := sess.Run(); err != nil {
				t.Errorf("Run after rejected retractions: %v", err)
			}
			if err := sess.Close(); err != nil {
				return err
			}
			if err := sess.Retract([]int{0}); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("Retract after Close: %v, want ErrSessionClosed", err)
			}
			return nil
		},
		func(transport.Conn) error {
			sess, err := NewHorizontalSession(cb, cfg, RoleBob, testBobPts)
			if err != nil {
				return err
			}
			// The serving party cannot initiate retractions.
			if err := sess.Retract([]int{0}); !errors.Is(err, ErrRetractRole) {
				t.Errorf("serving-party Retract: %v, want ErrRetractRole", err)
			}
			for {
				if _, err := sess.Run(); errors.Is(err, ErrSessionClosed) {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// Interleaving coverage at window boundaries: retract-then-expire the
// same generation, retraction past the compaction threshold (the grid
// rebases in place and the next retraction's ids land in the rebased
// numbering), retract-all leaving a valid zero-occupancy generation, and
// expire-all over a zero-occupancy window followed by a refill. Every
// run's labels are checked against a fresh session over exactly the
// surviving points.
func TestRetractInterleavings(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	aliceG1 := [][]float64{{2, 2}, {2, 0}, {0, 2}, {5, 5}, {4, 4}, {1, 1}}
	bobG1 := [][]float64{{1, 2}, {2, 1}, {6, 5}, {3, 0}}
	bobAppends := [][][]float64{bobG1, {{2, 2}}, {{1, 1}}}
	bobRetracts := [][]int{{1}, {}, {0}, {}}

	ca, cb := transport.Pipe()
	type stagePts struct{ a, b [][]float64 }
	var mu sync.Mutex
	var runs []*Result
	var want []stagePts
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, err := NewHorizontalSession(ca, cfg, RoleAlice, testAlicePts)
			if err != nil {
				return err
			}
			drive := func(a, b [][]float64) error {
				r, err := sess.Run()
				if err != nil {
					return err
				}
				mu.Lock()
				runs = append(runs, r)
				want = append(want, stagePts{a, b})
				mu.Unlock()
				return nil
			}
			if err := sess.Append(aliceG1); err != nil {
				return err
			}
			if err := drive(append(append([][]float64{}, testAlicePts...), aliceG1...),
				append(append([][]float64{}, testBobPts...), bobG1...)); err != nil {
				return err
			}
			// Retract inside generation 0, then expire the remains of the
			// same generation.
			if err := sess.Retract([]int{0, 4}); err != nil {
				return err
			}
			if err := sess.Expire(1); err != nil {
				return err
			}
			if err := drive(aliceG1, bobG1); err != nil {
				return err
			}
			// Retract 4 of the generation's 6 points: occupancy 2/6 falls
			// below the compaction threshold, so the generation's grid
			// rebases over the survivors {2,2},{1,1}.
			if err := sess.Retract([]int{1, 2, 3, 4}); err != nil {
				return err
			}
			if err := drive([][]float64{{2, 2}, {1, 1}}, bobG1); err != nil {
				return err
			}
			// The next retraction's ids are in the rebased numbering.
			if err := sess.Retract([]int{0}); err != nil {
				return err
			}
			if err := drive([][]float64{{1, 1}}, dropIDs(bobG1, []int{0})); err != nil {
				return err
			}
			// Retract an entire appended generation: a zero-occupancy
			// generation is valid, and the session keeps serving.
			if err := sess.Append([][]float64{{3, 3}, {3, 4}, {0, 0}}); err != nil {
				return err
			}
			if err := sess.Retract([]int{1, 2, 3}); err != nil {
				return err
			}
			if err := drive([][]float64{{1, 1}},
				append(dropIDs(bobG1, []int{0}), []float64{2, 2})); err != nil {
				return err
			}
			// Expire both live generations — including the zero-occupancy
			// one — then refill and keep clustering.
			if err := sess.Expire(2); err != nil {
				return err
			}
			if err := sess.Append([][]float64{{0, 0}, {1, 0}, {0, 1}}); err != nil {
				return err
			}
			if err := drive([][]float64{{0, 0}, {1, 0}, {0, 1}}, [][]float64{{1, 1}}); err != nil {
				return err
			}
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := NewHorizontalSession(cb, cfg, RoleBob, testBobPts)
			if err != nil {
				return err
			}
			appendN, retractN := 0, 0
			sess.SetAppendSource(func(req AppendRequest) ([][]float64, error) {
				b := bobAppends[appendN]
				appendN++
				return b, nil
			})
			sess.SetRetractSource(func(req RetractRequest) ([]int, error) {
				ids := bobRetracts[retractN]
				retractN++
				return ids, nil
			})
			for {
				if _, err := sess.Run(); errors.Is(err, ErrSessionClosed) {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(want) || len(runs) != 6 {
		t.Fatalf("interleaved session produced %d results, want 6", len(runs))
	}
	for stage, r := range runs {
		fresh := runMeteredPair(t,
			func(c transport.Conn) (*Result, error) { return HorizontalAlice(c, cfg, want[stage].a) },
			func(c transport.Conn) (*Result, error) { return HorizontalBob(c, cfg, want[stage].b) })
		if !metrics.ExactMatch(r.Labels, fresh.ra.Labels) {
			t.Errorf("stage %d: labels %v, fresh survivors %v", stage, r.Labels, fresh.ra.Labels)
		}
	}
}
