package core

import (
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/transport"
)

// The protocol-equivalence harness: every protocol family runs the same
// seeded datasets through the sequential (paper-literal, one comparison
// sub-protocol per candidate pair) and batched (constant rounds per
// protocol step) paths, and the two executions must be observably
// identical — same labels, same cluster counts, same leakage Ledger entry
// for entry — while the batched path uses strictly fewer message rounds.
// This is the contract that lets Config.Batching default to batched.

// eqOutcome captures everything one protocol execution exposes.
type eqOutcome struct {
	ra, rb   *Result
	msgs     int64                      // frames sent, both directions
	tagStats map[string]transport.Stats // merged per-phase accounting
}

// eqProtocol is one table row: a protocol family bound to a seeded
// dataset, runnable under any Config.
type eqProtocol struct {
	name string
	run  func(t *testing.T, cfg Config) eqOutcome
}

// runMeteredPair executes the two role functions over metered pipes.
func runMeteredPair(t *testing.T,
	aliceFn, bobFn func(conn transport.Conn) (*Result, error)) eqOutcome {
	t.Helper()
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	var mu sync.Mutex
	var ra, rb *Result
	err := transport.RunPair(ma, mb,
		func(transport.Conn) error {
			r, err := aliceFn(ma)
			if err != nil {
				return err
			}
			mu.Lock()
			ra = r
			mu.Unlock()
			return nil
		},
		func(transport.Conn) error {
			r, err := bobFn(mb)
			if err != nil {
				return err
			}
			mu.Lock()
			rb = r
			mu.Unlock()
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return eqOutcome{
		ra:       ra,
		rb:       rb,
		msgs:     ma.Stats().MessagesSent + mb.Stats().MessagesSent,
		tagStats: transport.Merge(ma, mb),
	}
}

// equivalenceDatasets returns the protocol table over two seeded
// datasets: the hand-built grid fixture and a quantized blob sample.
func equivalenceProtocols(t *testing.T) []eqProtocol {
	t.Helper()
	blobs, _ := dataset.Quantize(dataset.Blobs(20, 2, 0.4, 7), 8)
	hsplit, err := partition.HorizontalRandom(blobs.Points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	vsplit, err := partition.Vertical(blobs.Points, 1)
	if err != nil {
		t.Fatal(err)
	}
	asplit, err := partition.ArbitraryRandom(blobs.Points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}

	return []eqProtocol{
		{"horizontal/grid", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return HorizontalAlice(c, cfg, testAlicePts) },
				func(c transport.Conn) (*Result, error) { return HorizontalBob(c, cfg, testBobPts) })
		}},
		{"horizontal/blobs", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return HorizontalAlice(c, cfg, hsplit.Alice) },
				func(c transport.Conn) (*Result, error) { return HorizontalBob(c, cfg, hsplit.Bob) })
		}},
		{"enhanced/grid", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return EnhancedHorizontalAlice(c, cfg, testAlicePts) },
				func(c transport.Conn) (*Result, error) { return EnhancedHorizontalBob(c, cfg, testBobPts) })
		}},
		{"vertical/blobs", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return VerticalAlice(c, cfg, vsplit.Alice) },
				func(c transport.Conn) (*Result, error) { return VerticalBob(c, cfg, vsplit.Bob) })
		}},
		{"arbitrary/blobs", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) {
					return ArbitraryAlice(c, cfg, asplit.Alice, asplit.Owners)
				},
				func(c transport.Conn) (*Result, error) {
					return ArbitraryBob(c, cfg, asplit.Bob, asplit.Owners)
				})
		}},
	}
}

func assertSameOutcome(t *testing.T, seq, bat eqOutcome) {
	t.Helper()
	if !metrics.ExactMatch(bat.ra.Labels, seq.ra.Labels) {
		t.Errorf("alice labels diverge: batched %v, sequential %v", bat.ra.Labels, seq.ra.Labels)
	}
	if !metrics.ExactMatch(bat.rb.Labels, seq.rb.Labels) {
		t.Errorf("bob labels diverge: batched %v, sequential %v", bat.rb.Labels, seq.rb.Labels)
	}
	if bat.ra.NumClusters != seq.ra.NumClusters || bat.rb.NumClusters != seq.rb.NumClusters {
		t.Errorf("cluster counts diverge: batched %d/%d, sequential %d/%d",
			bat.ra.NumClusters, bat.rb.NumClusters, seq.ra.NumClusters, seq.rb.NumClusters)
	}
	if bat.ra.Leakage != seq.ra.Leakage {
		t.Errorf("alice ledgers diverge: batched %v, sequential %v", bat.ra.Leakage, seq.ra.Leakage)
	}
	if bat.rb.Leakage != seq.rb.Leakage {
		t.Errorf("bob ledgers diverge: batched %v, sequential %v", bat.rb.Leakage, seq.rb.Leakage)
	}
	if bat.msgs >= seq.msgs {
		t.Errorf("batched path used %d messages, sequential %d — want strictly fewer", bat.msgs, seq.msgs)
	}
}

func TestProtocolEquivalenceSequentialVsBatched(t *testing.T) {
	for _, engine := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		for _, proto := range equivalenceProtocols(t) {
			t.Run(string(engine)+"/"+proto.name, func(t *testing.T) {
				seqCfg := testCfg(engine)
				seqCfg.Batching = BatchModeSequential
				batCfg := testCfg(engine)
				batCfg.Batching = BatchModeBatched

				seq := proto.run(t, seqCfg)
				bat := proto.run(t, batCfg)
				assertSameOutcome(t, seq, bat)
			})
		}
	}
}

// ---- Grid-pruning equivalence ----
//
// The pruning contract mirrors the batching one: Config.Pruning "grid"
// versus "off" must produce byte-identical labels and cluster counts and
// identical non-index Ledger classes on every protocol family and every
// dataset shape, while performing at most as many secure comparisons —
// strictly fewer on clustered data, where the candidate cells exclude the
// other clusters. This is the contract that lets Pruning default to grid.

// pruneDataset is one randomized dataset shape for the pruning harness.
type pruneDataset struct {
	name      string
	clustered bool // expect a strict secure-comparison reduction
	grid      int
	points    [][]float64
}

func pruneDatasets() []pruneDataset {
	blobs2, _ := dataset.Quantize(dataset.BlobsDim(24, 3, 2, 0.2, 11), 32)
	uniform2, _ := dataset.Quantize(dataset.UniformNoiseDim(24, 2, 0, 1, 12), 32)
	blobs3, _ := dataset.Quantize(dataset.BlobsDim(24, 2, 3, 0.2, 13), 16)
	// Degenerate duplicates: coincident points in two far-apart piles plus
	// a repeated mid straggler.
	dupes := [][]float64{
		{1, 1}, {1, 1}, {1, 1}, {1, 1}, {2, 1}, {1, 2},
		{30, 30}, {30, 30}, {30, 30}, {30, 30}, {29, 30}, {30, 29},
		{15, 15}, {15, 15},
	}
	return []pruneDataset{
		{"blobs/d2", true, 32, blobs2.Points},
		{"uniform/d2", false, 32, uniform2.Points},
		{"dupes/d2", true, 32, dupes},
		{"blobs/d3", true, 16, blobs3.Points},
	}
}

// pruneCfg builds a configuration for the pruning harness on the given
// grid; eps stays well below the grid span so candidate cells actually
// exclude distant clusters.
func pruneCfg(engine compare.EngineKind, grid int, batching BatchMode, pruning PruneMode) Config {
	return Config{
		Eps:           3,
		MinPts:        5, // high enough that enhanced core queries go remote
		MaxCoord:      int64(grid - 1),
		PaillierBits:  256,
		RSABits:       256,
		Engine:        engine,
		ShareMaskBits: 6,
		Batching:      batching,
		Pruning:       pruning,
		Seed:          99,
	}
}

// comparisons totals both parties' secure-comparison instances for one run.
func comparisons(o eqOutcome) int64 {
	return o.ra.SecureComparisons + o.rb.SecureComparisons
}

func indexDisclosed(l Ledger) bool {
	return l.IndexCells+l.IndexPaddedPoints+l.IndexCellCoords+l.IndexQueryCells > 0
}

// oneCellIndex reports whether an exhaustive run's directory disclosure is
// the one-cell grid's (CandidateGrid): a horizontal party receives one
// cell padded to exactly the peer's size peerN, which the handshake already
// carried, and a lockstep party no directory at all.
func oneCellIndex(l Ledger, peerN int) bool {
	return l.IndexCells <= 1 && l.IndexPaddedPoints == l.IndexCells*peerN
}

// prunedProtocols builds the protocol table over one dataset.
func prunedProtocols(t *testing.T, d pruneDataset) []eqProtocol {
	t.Helper()
	hsplit, err := partition.HorizontalRandom(d.points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	vsplit, err := partition.Vertical(d.points, 1)
	if err != nil {
		t.Fatal(err)
	}
	asplit, err := partition.ArbitraryRandom(d.points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	return []eqProtocol{
		{"horizontal", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return HorizontalAlice(c, cfg, hsplit.Alice) },
				func(c transport.Conn) (*Result, error) { return HorizontalBob(c, cfg, hsplit.Bob) })
		}},
		{"enhanced", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return EnhancedHorizontalAlice(c, cfg, hsplit.Alice) },
				func(c transport.Conn) (*Result, error) { return EnhancedHorizontalBob(c, cfg, hsplit.Bob) })
		}},
		{"vertical", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return VerticalAlice(c, cfg, vsplit.Alice) },
				func(c transport.Conn) (*Result, error) { return VerticalBob(c, cfg, vsplit.Bob) })
		}},
		{"arbitrary", func(t *testing.T, cfg Config) eqOutcome {
			return runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return ArbitraryAlice(c, cfg, asplit.Alice, asplit.Owners) },
				func(c transport.Conn) (*Result, error) { return ArbitraryBob(c, cfg, asplit.Bob, asplit.Owners) })
		}},
	}
}

// assertPrunedOutcome checks one pruned-vs-exhaustive pair of runs.
// enhanced protocols get the relaxed ledger check (their OrderBits and
// CoreBits are mechanical counts that pruning strictly reduces).
func assertPrunedOutcome(t *testing.T, proto string, clustered bool, off, on eqOutcome) {
	t.Helper()
	if !metrics.ExactMatch(on.ra.Labels, off.ra.Labels) {
		t.Errorf("alice labels diverge: pruned %v, exhaustive %v", on.ra.Labels, off.ra.Labels)
	}
	if !metrics.ExactMatch(on.rb.Labels, off.rb.Labels) {
		t.Errorf("bob labels diverge: pruned %v, exhaustive %v", on.rb.Labels, off.rb.Labels)
	}
	if on.ra.NumClusters != off.ra.NumClusters || on.rb.NumClusters != off.rb.NumClusters {
		t.Errorf("cluster counts diverge: pruned %d/%d, exhaustive %d/%d",
			on.ra.NumClusters, on.rb.NumClusters, off.ra.NumClusters, off.rb.NumClusters)
	}
	for side, pair := range map[string][3]*Result{"alice": {off.ra, on.ra, off.rb}, "bob": {off.rb, on.rb, off.ra}} {
		offL, onL := pair[0].Leakage, pair[1].Leakage
		if proto == "enhanced" {
			if onL.OrderBits > offL.OrderBits || onL.CoreBits > offL.CoreBits {
				t.Errorf("%s enhanced disclosure grew: pruned %v, exhaustive %v", side, onL, offL)
			}
		} else if onL.NonIndex() != offL.NonIndex() {
			t.Errorf("%s non-index ledgers diverge: pruned %v, exhaustive %v", side, onL, offL)
		}
		if !oneCellIndex(offL, len(pair[2].Labels)) {
			t.Errorf("%s exhaustive run disclosed more than the one-cell index: %v", side, offL)
		}
		if !indexDisclosed(onL) {
			t.Errorf("%s pruned run recorded no index disclosure: %v", side, onL)
		}
	}
	offCmp, onCmp := comparisons(off), comparisons(on)
	// The lockstep protocols prune pairs outright and the basic HDP query
	// falls back to the exhaustive set whenever padding would not shrink
	// it, so neither can ever compare more. The enhanced selection's
	// comparison count is not exactly monotone in the candidate-set size
	// (quickselect pivots shift), so its guarantee is the clustered-data
	// reduction.
	if proto != "enhanced" && onCmp > offCmp {
		t.Errorf("pruned run used %d secure comparisons, exhaustive %d — want at most as many", onCmp, offCmp)
	}
	if clustered && onCmp >= offCmp {
		t.Errorf("pruned run used %d secure comparisons on clustered data, exhaustive %d — want strictly fewer", onCmp, offCmp)
	}
}

func TestPruningEquivalenceGridVsOff(t *testing.T) {
	for _, d := range pruneDatasets() {
		for _, proto := range prunedProtocols(t, d) {
			t.Run(d.name+"/"+proto.name, func(t *testing.T) {
				off := proto.run(t, pruneCfg(compare.EngineMasked, d.grid, BatchModeBatched, PruneOff))
				on := proto.run(t, pruneCfg(compare.EngineMasked, d.grid, BatchModeBatched, PruneGrid))
				assertPrunedOutcome(t, proto.name, d.clustered, off, on)
			})
		}
	}
}

// TestPruningComposesWithRoundStructure spot-checks the four
// batching×pruning combinations (and the YMPP engine) on the clustered
// fixture: all must agree on labels, and pruning must cut comparisons
// under either round structure.
func TestPruningComposesWithRoundStructure(t *testing.T) {
	d := pruneDatasets()[0]
	for _, proto := range prunedProtocols(t, d)[:1] { // horizontal carries the HDP hot loop
		for _, batching := range []BatchMode{BatchModeBatched, BatchModeSequential} {
			t.Run(proto.name+"/"+string(batching), func(t *testing.T) {
				off := proto.run(t, pruneCfg(compare.EngineMasked, d.grid, batching, PruneOff))
				on := proto.run(t, pruneCfg(compare.EngineMasked, d.grid, batching, PruneGrid))
				assertPrunedOutcome(t, proto.name, d.clustered, off, on)
			})
		}
	}
	t.Run("ympp", func(t *testing.T) {
		d := pruneDatasets()[3] // the 16-grid keeps the YMPP domain small
		for _, proto := range prunedProtocols(t, d)[:1] {
			off := proto.run(t, pruneCfg(compare.EngineYMPP, d.grid, BatchModeBatched, PruneOff))
			on := proto.run(t, pruneCfg(compare.EngineYMPP, d.grid, BatchModeBatched, PruneGrid))
			assertPrunedOutcome(t, proto.name, d.clustered, off, on)
		}
	})
}

// TestHorizontalRegionQueryRoundBudget pins the headline number: with
// batching on, the comparison phase of one HDP region query is at most 3
// frames — independent of nPeer — versus 3·nPeer sequentially.
func TestHorizontalRegionQueryRoundBudget(t *testing.T) {
	for _, engine := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		t.Run(string(engine), func(t *testing.T) {
			cfg := testCfg(engine)
			cfg.Batching = BatchModeBatched
			out := runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return HorizontalAlice(c, cfg, testAlicePts) },
				func(c transport.Conn) (*Result, error) { return HorizontalBob(c, cfg, testBobPts) })

			queries := int64(out.ra.Leakage.NeighborCounts + out.rb.Leakage.NeighborCounts)
			if queries == 0 {
				t.Fatal("no region queries recorded")
			}
			cmp := out.tagStats["hdp.cmp"]
			if cmp.MessagesSent > 3*queries {
				t.Errorf("hdp.cmp used %d frames across %d queries (%.1f per query), want ≤ 3 per query",
					cmp.MessagesSent, queries, float64(cmp.MessagesSent)/float64(queries))
			}

			// The sequential baseline on the same data must cost ~3·nPeer
			// frames per query; confirm batching actually moved the needle.
			seqCfg := testCfg(engine)
			seqCfg.Batching = BatchModeSequential
			seqOut := runMeteredPair(t,
				func(c transport.Conn) (*Result, error) { return HorizontalAlice(c, seqCfg, testAlicePts) },
				func(c transport.Conn) (*Result, error) { return HorizontalBob(c, seqCfg, testBobPts) })
			seqCmp := seqOut.tagStats["hdp.cmp"]
			if seqCmp.MessagesSent <= cmp.MessagesSent {
				t.Errorf("sequential hdp.cmp frames %d not above batched %d", seqCmp.MessagesSent, cmp.MessagesSent)
			}
		})
	}
}
