package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/transport"
)

// The incremental-equivalence harness. A streaming session absorbs k
// appended batches and re-clusters after each; the bar is that every
// stage is observably identical to a fresh session over the concatenated
// prefix — same labels on both sides and byte-identical non-index Ledger
// classes (the enhanced family keeps the relaxed mechanical bound, as in
// the pruning harness) — while the incremental runs issue strictly fewer
// secure comparisons and report cache hits. This is the contract that
// makes Session.Append a pure optimization.

// streamCase is one family bound to initial data plus per-stage appends.
type streamCase struct {
	name string
	// newSess constructs one side's session over its initial data.
	newSess func(conn transport.Conn, cfg Config, role Role) (*Session, error)
	// appendStage performs append i on the initiating side.
	appendStage func(sess *Session, stage int) error
	// sourceB answers the serving side's append requests in stage order.
	sourceB func() AppendSource
	// fresh runs the one-shot protocol over the data concatenated through
	// stage i (stage 0 = initial data only).
	fresh func(t *testing.T, cfg Config, stage int) eqOutcome
	// stages is the number of appends.
	stages int
	// tweak optionally adjusts the config (e.g. the enhanced case raises
	// MinPts so core bits genuinely depend on the peer).
	tweak func(Config) Config
}

// streamHorizontalCase builds the basic or enhanced horizontal case. The
// enhanced variant uses interleaved clusters and MinPts 4 so that core
// bits are decided over the network (each party's own-side counts stay
// below MinPts): those network-decided true bits are what the cross-run
// cache reuses after appends.
func streamHorizontalCase(name string, enhanced bool) streamCase {
	aliceInit, bobInit := testAlicePts, testBobPts
	aliceBatches := [][][]float64{
		{{2, 0}, {0, 2}},         // extends the shared block
		{{5, 5}, {7, 7}, {3, 3}}, // grows Bob's cluster region + noise
	}
	bobBatches := [][][]float64{
		{{2, 3}},         // near the block edge
		{{5, 7}, {0, 7}}, // cluster growth + noise
	}
	var tweak func(Config) Config
	if enhanced {
		aliceInit = [][]float64{{0, 0}, {1, 1}, {6, 6}, {3, 4}}
		bobInit = [][]float64{{1, 0}, {0, 1}, {6, 7}, {7, 6}, {4, 3}}
		aliceBatches = [][][]float64{{{2, 2}}, {{5, 5}}}
		bobBatches = [][][]float64{{{2, 1}}, {{6, 5}}}
		tweak = func(cfg Config) Config {
			cfg.MinPts = 4
			return cfg
		}
	}
	concat := func(init [][]float64, batches [][][]float64, stage int) [][]float64 {
		out := append([][]float64{}, init...)
		for i := 0; i < stage; i++ {
			out = append(out, batches[i]...)
		}
		return out
	}
	newA, newB := NewHorizontalSession, NewHorizontalSession
	oneA, oneB := HorizontalAlice, HorizontalBob
	if enhanced {
		newA, newB = NewEnhancedHorizontalSession, NewEnhancedHorizontalSession
		oneA, oneB = EnhancedHorizontalAlice, EnhancedHorizontalBob
	}
	return streamCase{
		name: name,
		newSess: func(conn transport.Conn, cfg Config, role Role) (*Session, error) {
			pts := aliceInit
			if role == RoleBob {
				pts = bobInit
			}
			if role == RoleAlice {
				return newA(conn, cfg, role, pts)
			}
			return newB(conn, cfg, role, pts)
		},
		appendStage: func(sess *Session, stage int) error { return sess.Append(aliceBatches[stage]) },
		sourceB: func() AppendSource {
			stage := 0
			return func(req AppendRequest) ([][]float64, error) {
				b := bobBatches[stage]
				stage++
				return b, nil
			}
		},
		fresh: func(t *testing.T, cfg Config, stage int) eqOutcome {
			a, b := concat(aliceInit, aliceBatches, stage), concat(bobInit, bobBatches, stage)
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return oneA(c, cfg, a) },
				func(c transport.Conn) (*Result, error) { return oneB(c, cfg, b) })
		},
		stages: 2,
		tweak:  tweak,
	}
}

// streamLockstepData is the shared record stream of the vertical and
// arbitrary cases: initial rows plus two appended row batches.
var streamLockstepData = struct {
	init    [][]float64
	batches [][][]float64
}{
	init: [][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {6, 6}, {6, 5}, {5, 6}, {3, 3},
	},
	batches: [][][]float64{
		{{2, 1}, {7, 6}},
		{{0, 2}, {6, 7}, {4, 0}},
	},
}

func lockstepConcat(stage int) [][]float64 {
	out := append([][]float64{}, streamLockstepData.init...)
	for i := 0; i < stage; i++ {
		out = append(out, streamLockstepData.batches[i]...)
	}
	return out
}

// column splits a row batch for the vertical case (Alice column 0, Bob
// column 1).
func column(rows [][]float64, col int) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = []float64{r[col]}
	}
	return out
}

func streamVerticalCase() streamCase {
	return streamCase{
		name: "vertical",
		newSess: func(conn transport.Conn, cfg Config, role Role) (*Session, error) {
			col := 0
			if role == RoleBob {
				col = 1
			}
			return NewVerticalSession(conn, cfg, role, column(streamLockstepData.init, col))
		},
		appendStage: func(sess *Session, stage int) error {
			return sess.Append(column(streamLockstepData.batches[stage], 0))
		},
		sourceB: func() AppendSource {
			stage := 0
			return func(req AppendRequest) ([][]float64, error) {
				b := column(streamLockstepData.batches[stage], 1)
				stage++
				return b, nil
			}
		},
		fresh: func(t *testing.T, cfg Config, stage int) eqOutcome {
			rows := lockstepConcat(stage)
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return VerticalAlice(c, cfg, column(rows, 0)) },
				func(c transport.Conn) (*Result, error) { return VerticalBob(c, cfg, column(rows, 1)) })
		},
		stages: 2,
	}
}

// streamOwners assigns deterministic per-cell ownership to appended rows
// (alternating, so both mixed and pure pairs appear).
func streamOwners(rows [][]float64, salt int) [][]partition.Owner {
	out := make([][]partition.Owner, len(rows))
	for i := range rows {
		row := make([]partition.Owner, len(rows[i]))
		for k := range row {
			if (i+k+salt)%2 == 0 {
				row[k] = partition.Alice
			} else {
				row[k] = partition.Bob
			}
		}
		out[i] = row
	}
	return out
}

func streamArbitraryCase() streamCase {
	initOwners := streamOwners(streamLockstepData.init, 0)
	batchOwners := [][][]partition.Owner{
		streamOwners(streamLockstepData.batches[0], 1),
		streamOwners(streamLockstepData.batches[1], 0),
	}
	ownersConcat := func(stage int) [][]partition.Owner {
		out := append([][]partition.Owner{}, initOwners...)
		for i := 0; i < stage; i++ {
			out = append(out, batchOwners[i]...)
		}
		return out
	}
	return streamCase{
		name: "arbitrary",
		newSess: func(conn transport.Conn, cfg Config, role Role) (*Session, error) {
			return NewArbitrarySession(conn, cfg, role, streamLockstepData.init, initOwners)
		},
		appendStage: func(sess *Session, stage int) error {
			return sess.AppendOwned(streamLockstepData.batches[stage], batchOwners[stage])
		},
		sourceB: func() AppendSource {
			stage := 0
			return func(req AppendRequest) ([][]float64, error) {
				b := streamLockstepData.batches[stage]
				stage++
				return b, nil
			}
		},
		fresh: func(t *testing.T, cfg Config, stage int) eqOutcome {
			rows, owners := lockstepConcat(stage), ownersConcat(stage)
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return ArbitraryAlice(c, cfg, rows, owners) },
				func(c transport.Conn) (*Result, error) { return ArbitraryBob(c, cfg, rows, owners) })
		},
		stages: 2,
	}
}

func streamCases() []streamCase {
	return []streamCase{
		streamHorizontalCase("horizontal", false),
		streamHorizontalCase("enhanced", true),
		streamVerticalCase(),
		streamArbitraryCase(),
	}
}

// streamOutcome is one incremental session's observable history.
type streamOutcome struct {
	resA, resB     []*Result
	setupA, setupB Ledger
}

// runIncremental drives one streaming session pair: initial run, then
// append+run per stage.
func runIncremental(t *testing.T, sc streamCase, cfg Config) streamOutcome {
	t.Helper()
	ca, cb := transport.Pipe()
	var mu sync.Mutex
	var out streamOutcome
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, err := sc.newSess(ca, cfg, RoleAlice)
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
			if err := drive(); err != nil {
				return err
			}
			for stage := 0; stage < sc.stages; stage++ {
				if err := sc.appendStage(sess, stage); err != nil {
					return err
				}
				if err := drive(); err != nil {
					return err
				}
			}
			mu.Lock()
			out.setupA = sess.SetupLeakage()
			mu.Unlock()
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := sc.newSess(cb, cfg, RoleBob)
			if err != nil {
				return err
			}
			sess.SetAppendSource(sc.sourceB())
			for {
				r, err := sess.Run()
				if errors.Is(err, ErrSessionClosed) {
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

// assertStage checks one incremental stage against its fresh-session
// baseline.
func assertStage(t *testing.T, sc streamCase, stage int, inc [2]*Result, fresh eqOutcome) {
	t.Helper()
	if !metrics.ExactMatch(inc[0].Labels, fresh.ra.Labels) {
		t.Errorf("stage %d: alice labels %v, fresh session %v", stage, inc[0].Labels, fresh.ra.Labels)
	}
	if !metrics.ExactMatch(inc[1].Labels, fresh.rb.Labels) {
		t.Errorf("stage %d: bob labels %v, fresh session %v", stage, inc[1].Labels, fresh.rb.Labels)
	}
	if inc[0].NumClusters != fresh.ra.NumClusters || inc[1].NumClusters != fresh.rb.NumClusters {
		t.Errorf("stage %d: cluster counts diverge", stage)
	}
	for side, pair := range map[string][2]*Result{"alice": {inc[0], fresh.ra}, "bob": {inc[1], fresh.rb}} {
		incL, freshL := pair[0].Leakage, pair[1].Leakage
		if sc.name == "enhanced" {
			// The enhanced family's OrderBits/CoreBits are mechanical
			// counts a cached core bit skips entirely (the pruning-harness
			// convention); they may only shrink.
			if incL.OrderBits > freshL.OrderBits || incL.CoreBits > freshL.CoreBits {
				t.Errorf("stage %d %s: enhanced disclosure grew: incremental %v, fresh %v", stage, side, incL, freshL)
			}
		} else if incL.NonIndex() != freshL.NonIndex() {
			t.Errorf("stage %d %s: non-index ledgers diverge: incremental %v, fresh %v", stage, side, incL, freshL)
		}
	}
	if stage > 0 {
		// Incremental stages must beat the rebuild on cryptographic work
		// and actually hit the cache.
		freshCmp := fresh.ra.SecureComparisons + fresh.rb.SecureComparisons
		incCmp := inc[0].SecureComparisons + inc[1].SecureComparisons
		if incCmp >= freshCmp {
			t.Errorf("stage %d: incremental run used %d secure comparisons, rebuild %d — want strictly fewer", stage, incCmp, freshCmp)
		}
		if inc[0].CachedComparisons == 0 || inc[1].CachedComparisons == 0 {
			t.Errorf("stage %d: cache hits alice=%d bob=%d — want both positive",
				stage, inc[0].CachedComparisons, inc[1].CachedComparisons)
		}
	}
}

func runIncrementalCase(t *testing.T, sc streamCase, cfg Config) {
	t.Helper()
	if sc.tweak != nil {
		cfg = sc.tweak(cfg)
	}
	out := runIncremental(t, sc, cfg)
	if len(out.resA) != sc.stages+1 || len(out.resB) != sc.stages+1 {
		t.Fatalf("incremental session produced %d/%d results, want %d", len(out.resA), len(out.resB), sc.stages+1)
	}
	for stage := 0; stage <= sc.stages; stage++ {
		fresh := sc.fresh(t, cfg, stage)
		assertStage(t, sc, stage, [2]*Result{out.resA[stage], out.resB[stage]}, fresh)
	}
	if cfg.withDefaults().Pruning == PruneGrid {
		// The streaming index disclosure is first-class Ledger state.
		if out.setupA.IndexDeltaCells == 0 || out.setupB.IndexDeltaCells == 0 {
			t.Errorf("append deltas recorded no IndexDeltaCells: alice setup %v, bob setup %v", out.setupA, out.setupB)
		}
	}
}

func TestIncrementalEquivalence(t *testing.T) {
	for _, sc := range streamCases() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			runIncrementalCase(t, sc, testCfg(compare.EngineMasked))
		})
	}
}

func TestIncrementalEquivalenceParallel(t *testing.T) {
	for _, sc := range streamCases() {
		sc := sc
		t.Run(sc.name+"/W=4", func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			cfg.Parallel = 4
			runIncrementalCase(t, sc, cfg)
		})
	}
}

func TestIncrementalEquivalencePruningOff(t *testing.T) {
	for _, sc := range []streamCase{streamHorizontalCase("horizontal", false), streamVerticalCase()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			cfg.Pruning = PruneOff
			runIncrementalCase(t, sc, cfg)
		})
	}
}

func TestIncrementalEquivalenceSequential(t *testing.T) {
	for _, sc := range []streamCase{streamHorizontalCase("horizontal", false), streamVerticalCase()} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			cfg.Batching = BatchModeSequential
			runIncrementalCase(t, sc, cfg)
		})
	}
}

// Misuse coverage for the append op: role, lifecycle, and concurrency
// guards return the session's typed errors instead of racing.
func TestAppendMisuse(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	ca, cb := transport.Pipe()
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, err := NewHorizontalSession(ca, cfg, RoleAlice, testAlicePts)
			if err != nil {
				return err
			}
			// Append while a Run/Append/Close is in flight.
			sess.guard.running.Store(true)
			if err := sess.Append([][]float64{{3, 3}}); !errors.Is(err, ErrConcurrentRun) {
				t.Errorf("concurrent Append: %v, want ErrConcurrentRun", err)
			}
			sess.guard.running.Store(false)
			// Local validation failures must not poison the session.
			if err := sess.Append([][]float64{{1, 2, 3}}); err == nil {
				t.Error("dimension-mismatched append accepted")
			}
			if err := sess.AppendOwned(nil, [][]partition.Owner{}); err == nil {
				t.Error("AppendOwned on horizontal session accepted")
			}
			if _, err := sess.Run(); err != nil {
				t.Errorf("Run after rejected appends: %v", err)
			}
			if err := sess.Close(); err != nil {
				return err
			}
			if err := sess.Append([][]float64{{3, 3}}); !errors.Is(err, ErrSessionClosed) {
				t.Errorf("Append after Close: %v, want ErrSessionClosed", err)
			}
			return nil
		},
		func(transport.Conn) error {
			sess, err := NewHorizontalSession(cb, cfg, RoleBob, testBobPts)
			if err != nil {
				return err
			}
			// The serving party cannot initiate appends.
			if err := sess.Append([][]float64{{3, 3}}); !errors.Is(err, ErrAppendRole) {
				t.Errorf("serving-party Append: %v, want ErrAppendRole", err)
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

// TestSessionCacheReducesFrames pins the wire-level half of the cache
// contract on both round structures: with no appends between runs, run 2
// of a session exchanges strictly fewer frames than run 1 (fully-cached
// region queries carry the budget-parity op frame but no MP/comparison
// traffic), while labels stay identical.
func TestSessionCacheReducesFrames(t *testing.T) {
	for _, batching := range []BatchMode{BatchModeBatched, BatchModeSequential} {
		batching := batching
		t.Run(string(batching), func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			cfg.Batching = batching
			ca, cb := transport.Pipe()
			ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)

			resA := make(chan *Result, 1)
			resB := make(chan *Result, 1)
			proceedA := make(chan struct{})
			proceedB := make(chan struct{})
			errc := make(chan error, 2)
			go func() {
				// Closing the pipe on any exit unblocks the peer's Recv, so
				// an error surfaces instead of deadlocking the harness.
				defer ca.Close()
				sess, err := NewHorizontalSession(ma, cfg, RoleAlice, testAlicePts)
				if err != nil {
					errc <- err
					return
				}
				for i := 0; i < 2; i++ {
					r, err := sess.Run()
					if err != nil {
						errc <- err
						return
					}
					resA <- r
					<-proceedA
				}
				errc <- sess.Close()
			}()
			go func() {
				defer cb.Close()
				sess, err := NewHorizontalSession(mb, cfg, RoleBob, testBobPts)
				if err != nil {
					errc <- err
					return
				}
				for {
					r, err := sess.Run()
					if errors.Is(err, ErrSessionClosed) {
						errc <- nil
						return
					}
					if err != nil {
						errc <- err
						return
					}
					resB <- r
					<-proceedB
				}
			}()

			// Snapshot the cumulative frame count after each run; both
			// parties are parked on the proceed channels while we read.
			var frames [2]int64
			var labels [2][]int
			total := func() int64 {
				return ma.Stats().MessagesSent + mb.Stats().MessagesSent
			}
			prev := int64(0)
			for run := 0; run < 2; run++ {
				var ra *Result
				select {
				case ra = <-resA:
				case err := <-errc:
					t.Fatalf("session ended before run %d: %v", run+1, err)
				}
				select {
				case <-resB:
				case err := <-errc:
					t.Fatalf("serving session ended before run %d: %v", run+1, err)
				}
				cur := total()
				frames[run] = cur - prev
				prev = cur
				labels[run] = ra.Labels
				proceedA <- struct{}{}
				proceedB <- struct{}{}
			}
			for i := 0; i < 2; i++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			if !metrics.ExactMatch(labels[0], labels[1]) {
				t.Errorf("cached run changed labels: %v vs %v", labels[0], labels[1])
			}
			if frames[1] >= frames[0] {
				t.Errorf("run 2 exchanged %d frames, run 1 %d — want strictly fewer", frames[1], frames[0])
			}
		})
	}
}
