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

// The windowed-equivalence harness. A sliding-window session holds a
// fixed-width window of generations: each stage appends one batch and
// expires the oldest live generation, then re-clusters. The bar mirrors
// the incremental harness: every stage must be observably identical to a
// fresh session over exactly the window contents — same labels on both
// sides, byte-identical non-index Ledger classes (enhanced keeps its
// relaxed shrink-only bound) — while the windowed runs issue strictly
// fewer secure comparisons than a per-window rebuild wherever a cache
// can legally survive the expiry. Where it cannot (the enhanced core-bit
// cache: removing points can flip a true bit false), the harness asserts
// the opposite — zero cache hits — because a surviving stale bit would
// be a correctness bug, not an optimization.

// windowWidth is the number of live generations every windowed stage
// clusters over.
const windowWidth = 2

// windowCase is one family bound to per-generation batches.
type windowCase struct {
	name     string
	enhanced bool
	// gens is the total number of generation batches; the first
	// windowWidth fill the window, the rest each slide it one step.
	gens    int
	newSess func(conn transport.Conn, cfg Config, role Role) (*Session, error)
	// appendGen appends generation gen (1 ≤ gen < windowWidth) on the
	// initiating side while the window is still filling.
	appendGen func(sess *Session, gen int) error
	// slideGen slides the window one step at generation gen (append gen,
	// expire the oldest live generation).
	slideGen func(sess *Session, gen int) error
	// sourceB answers the serving side's append requests in gen order.
	sourceB func() AppendSource
	// fresh runs the one-shot protocol over generations [lo, hi) — the
	// window contents after stage hi-windowWidth.
	fresh func(t *testing.T, cfg Config, lo, hi int) eqOutcome
	tweak func(Config) Config
}

// concatGens flattens generations [lo, hi) of a per-generation batch
// list.
func concatGens(gens [][][]float64, lo, hi int) [][]float64 {
	var out [][]float64
	for g := lo; g < hi; g++ {
		out = append(out, gens[g]...)
	}
	return out
}

// windowHorizontalCase builds the basic or enhanced horizontal case.
// Each generation keeps both parties' clusters alive around (0..2) and
// (5..7), so cached prefixes genuinely answer later windows. The
// enhanced variant interleaves the parties and raises MinPts so core
// bits are decided over the network.
func windowHorizontalCase(name string, enhanced bool) windowCase {
	aliceGens := [][][]float64{
		{{0, 0}, {1, 1}, {0, 1}},
		{{2, 0}, {0, 2}, {6, 6}},
		{{5, 5}, {7, 7}, {1, 0}},
		{{6, 5}, {2, 2}, {3, 3}},
	}
	bobGens := [][][]float64{
		{{1, 0}, {6, 7}},
		{{2, 3}, {5, 6}},
		{{5, 7}, {0, 0}},
		{{7, 6}, {0, 7}},
	}
	var tweak func(Config) Config
	if enhanced {
		aliceGens = [][][]float64{
			{{0, 0}, {1, 1}, {3, 4}},
			{{2, 2}, {6, 6}},
			{{5, 5}, {0, 2}},
			{{2, 0}, {7, 7}},
		}
		bobGens = [][][]float64{
			{{1, 0}, {0, 1}, {4, 3}},
			{{2, 1}, {6, 7}},
			{{6, 5}, {1, 2}},
			{{0, 0}, {7, 6}},
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
	return windowCase{
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
		slideGen:  func(sess *Session, gen int) error { return sess.WindowAppend(aliceGens[gen]) },
		sourceB: func() AppendSource {
			gen := 1
			return func(req AppendRequest) ([][]float64, error) {
				b := bobGens[gen]
				gen++
				return b, nil
			}
		},
		fresh: func(t *testing.T, cfg Config, lo, hi int) eqOutcome {
			a, b := concatGens(aliceGens, lo, hi), concatGens(bobGens, lo, hi)
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return oneA(c, cfg, a) },
				func(c transport.Conn) (*Result, error) { return oneB(c, cfg, b) })
		},
		tweak: tweak,
	}
}

// windowRowGens is the shared record stream of the vertical and
// arbitrary windowed cases, one batch per generation.
var windowRowGens = [][][]float64{
	{{0, 0}, {1, 0}, {0, 1}, {6, 6}},
	{{1, 1}, {6, 5}, {5, 6}},
	{{2, 1}, {7, 6}, {3, 3}},
	{{0, 2}, {6, 7}, {4, 0}},
}

func windowVerticalCase() windowCase {
	return windowCase{
		name: "vertical",
		gens: len(windowRowGens),
		newSess: func(conn transport.Conn, cfg Config, role Role) (*Session, error) {
			col := 0
			if role == RoleBob {
				col = 1
			}
			return NewVerticalSession(conn, cfg, role, column(windowRowGens[0], col))
		},
		appendGen: func(sess *Session, gen int) error {
			return sess.Append(column(windowRowGens[gen], 0))
		},
		slideGen: func(sess *Session, gen int) error {
			return sess.WindowAppend(column(windowRowGens[gen], 0))
		},
		sourceB: func() AppendSource {
			gen := 1
			return func(req AppendRequest) ([][]float64, error) {
				b := column(windowRowGens[gen], 1)
				gen++
				return b, nil
			}
		},
		fresh: func(t *testing.T, cfg Config, lo, hi int) eqOutcome {
			rows := concatGens(windowRowGens, lo, hi)
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return VerticalAlice(c, cfg, column(rows, 0)) },
				func(c transport.Conn) (*Result, error) { return VerticalBob(c, cfg, column(rows, 1)) })
		},
	}
}

func windowArbitraryCase() windowCase {
	genOwners := make([][][]partition.Owner, len(windowRowGens))
	for g := range windowRowGens {
		genOwners[g] = streamOwners(windowRowGens[g], g)
	}
	ownersConcat := func(lo, hi int) [][]partition.Owner {
		var out [][]partition.Owner
		for g := lo; g < hi; g++ {
			out = append(out, genOwners[g]...)
		}
		return out
	}
	return windowCase{
		name: "arbitrary",
		gens: len(windowRowGens),
		newSess: func(conn transport.Conn, cfg Config, role Role) (*Session, error) {
			return NewArbitrarySession(conn, cfg, role, windowRowGens[0], genOwners[0])
		},
		appendGen: func(sess *Session, gen int) error {
			return sess.AppendOwned(windowRowGens[gen], genOwners[gen])
		},
		slideGen: func(sess *Session, gen int) error {
			if err := sess.AppendOwned(windowRowGens[gen], genOwners[gen]); err != nil {
				return err
			}
			return sess.Expire(1)
		},
		sourceB: func() AppendSource {
			gen := 1
			return func(req AppendRequest) ([][]float64, error) {
				b := windowRowGens[gen]
				gen++
				return b, nil
			}
		},
		fresh: func(t *testing.T, cfg Config, lo, hi int) eqOutcome {
			rows, owners := concatGens(windowRowGens, lo, hi), ownersConcat(lo, hi)
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return ArbitraryAlice(c, cfg, rows, owners) },
				func(c transport.Conn) (*Result, error) { return ArbitraryBob(c, cfg, rows, owners) })
		},
	}
}

func windowCases() []windowCase {
	return []windowCase{
		windowHorizontalCase("horizontal", false),
		windowHorizontalCase("enhanced", true),
		windowVerticalCase(),
		windowArbitraryCase(),
	}
}

// runWindowed drives one sliding-window session pair: fill the window
// (construct + appends), run, then slide + run per stage.
func runWindowed(t *testing.T, wc windowCase, cfg Config) streamOutcome {
	t.Helper()
	ca, cb := transport.Pipe()
	var mu sync.Mutex
	var out streamOutcome
	slides := wc.gens - windowWidth
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, err := wc.newSess(ca, cfg, RoleAlice)
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
			for gen := 1; gen < windowWidth; gen++ {
				if err := wc.appendGen(sess, gen); err != nil {
					return err
				}
			}
			if err := drive(); err != nil {
				return err
			}
			for gen := windowWidth; gen < wc.gens; gen++ {
				if err := wc.slideGen(sess, gen); err != nil {
					return err
				}
				if err := drive(); err != nil {
					return err
				}
			}
			if got := sess.Expires(); got != slides {
				t.Errorf("initiating session absorbed %d expiries, want %d", got, slides)
			}
			mu.Lock()
			out.setupA = sess.SetupLeakage()
			mu.Unlock()
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := wc.newSess(cb, cfg, RoleBob)
			if err != nil {
				return err
			}
			sess.SetAppendSource(wc.sourceB())
			for {
				r, err := sess.Run()
				if errors.Is(err, ErrSessionClosed) {
					if got := sess.Expires(); got != slides {
						t.Errorf("serving session absorbed %d expiries, want %d", got, slides)
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

// assertWindowStage checks one windowed stage against its fresh-session
// baseline over exactly the window contents.
func assertWindowStage(t *testing.T, wc windowCase, stage int, inc [2]*Result, fresh eqOutcome) {
	t.Helper()
	if !metrics.ExactMatch(inc[0].Labels, fresh.ra.Labels) {
		t.Errorf("stage %d: alice labels %v, fresh window %v", stage, inc[0].Labels, fresh.ra.Labels)
	}
	if !metrics.ExactMatch(inc[1].Labels, fresh.rb.Labels) {
		t.Errorf("stage %d: bob labels %v, fresh window %v", stage, inc[1].Labels, fresh.rb.Labels)
	}
	if inc[0].NumClusters != fresh.ra.NumClusters || inc[1].NumClusters != fresh.rb.NumClusters {
		t.Errorf("stage %d: cluster counts diverge", stage)
	}
	for side, pair := range map[string][2]*Result{"alice": {inc[0], fresh.ra}, "bob": {inc[1], fresh.rb}} {
		incL, freshL := pair[0].Leakage, pair[1].Leakage
		if wc.enhanced {
			if incL.OrderBits > freshL.OrderBits || incL.CoreBits > freshL.CoreBits {
				t.Errorf("stage %d %s: enhanced disclosure grew: windowed %v, fresh %v", stage, side, incL, freshL)
			}
		} else if incL.NonIndex() != freshL.NonIndex() {
			t.Errorf("stage %d %s: non-index ledgers diverge: windowed %v, fresh %v", stage, side, incL, freshL)
		}
	}
	if stage == 0 {
		return
	}
	if wc.enhanced {
		// Expiry cleared the core-bit cache — counts can shrink, so a
		// surviving bit would be unsound. The windowed run must therefore
		// cost exactly what a fresh rebuild costs: intra-run hits (a noise
		// point re-queried from a later founder's seed queue) still happen,
		// identically on both, but no cross-run hit survives the expiry.
		for side, pair := range map[string][2]*Result{"alice": {inc[0], fresh.ra}, "bob": {inc[1], fresh.rb}} {
			if pair[0].SecureComparisons != pair[1].SecureComparisons ||
				pair[0].CachedComparisons != pair[1].CachedComparisons {
				t.Errorf("stage %d %s: windowed enhanced run cost %d secure + %d cached comparisons, fresh rebuild %d + %d — expiry must leave no cross-run cache",
					stage, side, pair[0].SecureComparisons, pair[0].CachedComparisons,
					pair[1].SecureComparisons, pair[1].CachedComparisons)
			}
		}
		return
	}
	// The surviving generations' cache entries must make the windowed run
	// strictly cheaper than rebuilding the window from scratch.
	freshCmp := fresh.ra.SecureComparisons + fresh.rb.SecureComparisons
	incCmp := inc[0].SecureComparisons + inc[1].SecureComparisons
	if incCmp >= freshCmp {
		t.Errorf("stage %d: windowed run used %d secure comparisons, rebuild %d — want strictly fewer", stage, incCmp, freshCmp)
	}
	if inc[0].CachedComparisons == 0 || inc[1].CachedComparisons == 0 {
		t.Errorf("stage %d: cache hits alice=%d bob=%d — want both positive",
			stage, inc[0].CachedComparisons, inc[1].CachedComparisons)
	}
}

func runWindowedCase(t *testing.T, wc windowCase, cfg Config) {
	t.Helper()
	if wc.tweak != nil {
		cfg = wc.tweak(cfg)
	}
	out := runWindowed(t, wc, cfg)
	stages := wc.gens - windowWidth + 1
	if len(out.resA) != stages || len(out.resB) != stages {
		t.Fatalf("windowed session produced %d/%d results, want %d", len(out.resA), len(out.resB), stages)
	}
	for stage := 0; stage < stages; stage++ {
		fresh := wc.fresh(t, cfg, stage, stage+windowWidth)
		assertWindowStage(t, wc, stage, [2]*Result{out.resA[stage], out.resB[stage]}, fresh)
	}
	// The tombstone disclosure is first-class Ledger state on both sides.
	slides := wc.gens - windowWidth
	if out.setupA.IndexTombstones != slides || out.setupB.IndexTombstones != slides {
		t.Errorf("expiries recorded %d/%d IndexTombstones, want %d", out.setupA.IndexTombstones, out.setupB.IndexTombstones, slides)
	}
}

func TestWindowedEquivalence(t *testing.T) {
	for _, wc := range windowCases() {
		wc := wc
		t.Run(wc.name, func(t *testing.T) {
			runWindowedCase(t, wc, testCfg(compare.EngineMasked))
		})
	}
}

func TestWindowedEquivalenceParallel(t *testing.T) {
	for _, wc := range windowCases() {
		wc := wc
		t.Run(wc.name+"/W=4", func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			cfg.Parallel = 4
			runWindowedCase(t, wc, cfg)
		})
	}
}

func TestWindowedEquivalencePruningOff(t *testing.T) {
	for _, wc := range []windowCase{windowHorizontalCase("horizontal", false), windowVerticalCase()} {
		wc := wc
		t.Run(wc.name, func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			cfg.Pruning = PruneOff
			runWindowedCase(t, wc, cfg)
		})
	}
}

// Misuse coverage for the expire op, in every family: role, lifecycle,
// argument, and concurrency guards return the session's typed errors, and
// an expire-everything window stays usable — after a refill the next Run
// labels exactly the refilled generation, as a fresh session over it does.
func TestExpireMisuse(t *testing.T) {
	for _, wc := range windowCases() {
		wc := wc
		t.Run(wc.name, func(t *testing.T) {
			cfg := testCfg(compare.EngineMasked)
			if wc.tweak != nil {
				cfg = wc.tweak(cfg)
			}
			var mu sync.Mutex
			var ra, rb *Result
			ca, cb := transport.Pipe()
			err := transport.RunPair(ca, cb,
				func(transport.Conn) error {
					sess, err := wc.newSess(ca, cfg, RoleAlice)
					if err != nil {
						return err
					}
					// Expire while a Run/Append/Close is in flight.
					sess.guard.running.Store(true)
					if err := sess.Expire(1); !errors.Is(err, ErrConcurrentRun) {
						t.Errorf("concurrent Expire: %v, want ErrConcurrentRun", err)
					}
					sess.guard.running.Store(false)
					// Argument validation fails locally without poisoning the session.
					if err := sess.Expire(0); err == nil {
						t.Error("Expire(0) accepted")
					}
					if err := sess.Expire(2); err == nil {
						t.Error("Expire beyond the live window accepted")
					}
					// Expiring every live generation leaves a valid empty window;
					// one more is an error, and a refill restores service.
					if err := wc.appendGen(sess, 1); err != nil {
						return err
					}
					if err := sess.Expire(2); err != nil {
						t.Errorf("expire-all: %v", err)
					}
					if err := sess.Expire(1); err == nil {
						t.Error("Expire on an empty window accepted")
					}
					if err := wc.appendGen(sess, 2); err != nil {
						return err
					}
					r, err := sess.Run()
					if err != nil {
						t.Errorf("Run after expire-all + refill: %v", err)
					}
					mu.Lock()
					ra = r
					mu.Unlock()
					if err := sess.Close(); err != nil {
						return err
					}
					if err := sess.Expire(1); !errors.Is(err, ErrSessionClosed) {
						t.Errorf("Expire after Close: %v, want ErrSessionClosed", err)
					}
					return nil
				},
				func(transport.Conn) error {
					sess, err := wc.newSess(cb, cfg, RoleBob)
					if err != nil {
						return err
					}
					// The serving party cannot initiate expiries.
					if err := sess.Expire(1); !errors.Is(err, ErrExpireRole) {
						t.Errorf("serving-party Expire: %v, want ErrExpireRole", err)
					}
					sess.SetAppendSource(wc.sourceB())
					for {
						r, err := sess.Run()
						if errors.Is(err, ErrSessionClosed) {
							return nil
						} else if err != nil {
							return err
						}
						mu.Lock()
						rb = r
						mu.Unlock()
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			fresh := wc.fresh(t, cfg, 2, 3)
			if ra == nil || rb == nil {
				t.Fatal("refilled window never ran")
			}
			if !metrics.ExactMatch(ra.Labels, fresh.ra.Labels) || !metrics.ExactMatch(rb.Labels, fresh.rb.Labels) {
				t.Errorf("refilled window labels %v / %v, fresh session %v / %v",
					ra.Labels, rb.Labels, fresh.ra.Labels, fresh.rb.Labels)
			}
		})
	}
}
