package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/transport"
)

// testCfg returns a fast configuration: small keys, small grid.
func testCfg(engine compare.EngineKind) Config {
	return Config{
		Eps:           2,
		MinPts:        3,
		MaxCoord:      7,
		PaillierBits:  256,
		RSABits:       256,
		Engine:        engine,
		ShareMaskBits: 6,
		Seed:          42,
	}
}

// Two small horizontally-partitioned point sets on the 8×8 grid with an
// overlapping cluster, a Bob-only cluster, and noise.
var (
	testAlicePts = [][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, // dense block shared with Bob's corner points
		{6, 6},         // isolated for Alice, near Bob's cluster
		{3, 4}, {4, 3}, // stragglers
	}
	testBobPts = [][]float64{
		{1, 2}, {2, 1}, {2, 2}, // adjacent to Alice's block
		{6, 5}, {5, 6}, {6, 7}, {7, 6}, // Bob cluster around (6,6)
		{4, 0}, // straggler
	}
)

func encodeAll(t *testing.T, cfg Config, pts [][]float64) [][]int64 {
	t.Helper()
	enc, err := cfg.withDefaults().EncodePoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// runHorizontal executes a horizontal-family protocol pair in-process.
func runHorizontal(t *testing.T, cfg Config,
	aliceFn func(transport.Conn, Config, [][]float64) (*Result, error),
	bobFn func(transport.Conn, Config, [][]float64) (*Result, error),
	alicePts, bobPts [][]float64) (ra, rb *Result) {
	t.Helper()
	var mu sync.Mutex
	err := transport.Run2(
		func(c transport.Conn) error {
			r, err := aliceFn(c, cfg, alicePts)
			if err != nil {
				return err
			}
			mu.Lock()
			ra = r
			mu.Unlock()
			return nil
		},
		func(c transport.Conn) error {
			r, err := bobFn(c, cfg, bobPts)
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
	return ra, rb
}

func assertMatchesSimulation(t *testing.T, cfg Config, ra, rb *Result, alicePts, bobPts [][]float64) {
	t.Helper()
	encA := encodeAll(t, cfg, alicePts)
	encB := encodeAll(t, cfg, bobPts)
	epsSq, err := cfg.withDefaults().epsSquared()
	if err != nil {
		t.Fatal(err)
	}
	wantA, ka, wantB, kb := SimulateHorizontal(encA, encB, epsSq, cfg.MinPts)
	if !metrics.ExactMatch(ra.Labels, wantA) {
		t.Errorf("alice labels %v != simulation %v", ra.Labels, wantA)
	}
	if ra.NumClusters != ka {
		t.Errorf("alice clusters = %d, want %d", ra.NumClusters, ka)
	}
	if !metrics.ExactMatch(rb.Labels, wantB) {
		t.Errorf("bob labels %v != simulation %v", rb.Labels, wantB)
	}
	if rb.NumClusters != kb {
		t.Errorf("bob clusters = %d, want %d", rb.NumClusters, kb)
	}
}

func TestHorizontalYMPPMatchesSimulation(t *testing.T) {
	cfg := testCfg(compare.EngineYMPP)
	ra, rb := runHorizontal(t, cfg, HorizontalAlice, HorizontalBob, testAlicePts, testBobPts)
	assertMatchesSimulation(t, cfg, ra, rb, testAlicePts, testBobPts)
	// Theorem 9's disclosure profile: neighbour counts, no core bits.
	if ra.Leakage.NeighborCounts == 0 || ra.Leakage.MembershipBits == 0 {
		t.Errorf("basic protocol must record neighbour-count leakage: %v", ra.Leakage)
	}
	if ra.Leakage.CoreBits != 0 || ra.Leakage.OrderBits != 0 {
		t.Errorf("basic protocol must not record §5 leakage: %v", ra.Leakage)
	}
	// The responder side observes the HDP dot products.
	if ra.Leakage.DotProducts == 0 && rb.Leakage.DotProducts == 0 {
		t.Errorf("HDP dot-product disclosure not recorded: alice %v bob %v", ra.Leakage, rb.Leakage)
	}
}

func TestHorizontalMaskedMatchesSimulation(t *testing.T) {
	// Larger instance on a 64-grid using the O(1)-ciphertext engine.
	d := dataset.WithNoise(dataset.Blobs(46, 3, 0.35, 9), 8, 10)
	q, scaleEps := dataset.Quantize(d, 32)
	split, err := partition.HorizontalRandom(q.Points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Eps:          scaleEps(0.45),
		MinPts:       4,
		MaxCoord:     31,
		PaillierBits: 256,
		RSABits:      256,
		Engine:       compare.EngineMasked,
		Seed:         3,
	}
	ra, rb := runHorizontal(t, cfg, HorizontalAlice, HorizontalBob, split.Alice, split.Bob)
	assertMatchesSimulation(t, cfg, ra, rb, split.Alice, split.Bob)
}

func TestEnhancedMatchesSimulation(t *testing.T) {
	cfg := testCfg(compare.EngineYMPP)
	ra, rb := runHorizontal(t, cfg, EnhancedHorizontalAlice, EnhancedHorizontalBob, testAlicePts, testBobPts)
	assertMatchesSimulation(t, cfg, ra, rb, testAlicePts, testBobPts)
	// Theorem 11's disclosure profile: core bits and order bits, but no
	// neighbour counts.
	if ra.Leakage.NeighborCounts != 0 || ra.Leakage.MembershipBits != 0 {
		t.Errorf("enhanced protocol must not leak neighbour counts: %v", ra.Leakage)
	}
	if ra.Leakage.CoreBits == 0 {
		t.Errorf("enhanced protocol must record core bits: %v", ra.Leakage)
	}
}

func TestEnhancedQuickselectMatchesScan(t *testing.T) {
	cfgScan := testCfg(compare.EngineMasked)
	cfgScan.MinPts = 4
	cfgQuick := cfgScan
	cfgQuick.Selection = SelectionQuick
	r1a, r1b := runHorizontal(t, cfgScan, EnhancedHorizontalAlice, EnhancedHorizontalBob, testAlicePts, testBobPts)
	r2a, r2b := runHorizontal(t, cfgQuick, EnhancedHorizontalAlice, EnhancedHorizontalBob, testAlicePts, testBobPts)
	if !metrics.ExactMatch(r1a.Labels, r2a.Labels) || !metrics.ExactMatch(r1b.Labels, r2b.Labels) {
		t.Error("selection strategies disagree on labels")
	}
}

func TestEnhancedAgreesWithBasic(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	ba, bb := runHorizontal(t, cfg, HorizontalAlice, HorizontalBob, testAlicePts, testBobPts)
	ea, eb := runHorizontal(t, cfg, EnhancedHorizontalAlice, EnhancedHorizontalBob, testAlicePts, testBobPts)
	if !metrics.ExactMatch(ba.Labels, ea.Labels) || !metrics.ExactMatch(bb.Labels, eb.Labels) {
		t.Error("enhanced protocol diverges from basic protocol labels")
	}
}

// verticalOracle computes the plaintext DBSCAN labels on the joined
// records — the vertical protocol's required output.
func verticalOracle(t *testing.T, cfg Config, joined [][]float64) dbscan.Result {
	t.Helper()
	enc := encodeAll(t, cfg, joined)
	epsSq, err := cfg.withDefaults().epsSquared()
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbscan.ClusterInt(enc, epsSq, cfg.MinPts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerticalMatchesPlainDBSCANExactly(t *testing.T) {
	d := dataset.Blobs(24, 2, 0.4, 4)
	q, scaleEps := dataset.Quantize(d, 8)
	split, err := partition.Vertical(q.Points, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(compare.EngineYMPP)
	cfg.Eps = scaleEps(0.9)
	cfg.MinPts = 3

	var ra, rb *Result
	err = transport.Run2(
		func(c transport.Conn) error {
			r, err := VerticalAlice(c, cfg, split.Alice)
			ra = r
			return err
		},
		func(c transport.Conn) error {
			r, err := VerticalBob(c, cfg, split.Bob)
			rb = r
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Both parties must hold identical labels.
	for i := range ra.Labels {
		if ra.Labels[i] != rb.Labels[i] {
			t.Fatalf("parties disagree at record %d: %d vs %d", i, ra.Labels[i], rb.Labels[i])
		}
	}
	want := verticalOracle(t, cfg, q.Points)
	if !metrics.ExactMatch(ra.Labels, want.Labels) {
		t.Errorf("vertical labels %v != plaintext DBSCAN %v", ra.Labels, want.Labels)
	}
	if ra.NumClusters != want.NumClusters {
		t.Errorf("clusters = %d, want %d", ra.NumClusters, want.NumClusters)
	}
	if ra.Leakage.PairDecisions == 0 {
		t.Error("vertical protocol must record pair decisions")
	}
}

func TestVerticalMaskedLargerInstance(t *testing.T) {
	d := dataset.WithNoise(dataset.BlobsDim(40, 3, 4, 0.3, 6), 5, 7)
	q, scaleEps := dataset.Quantize(d, 32)
	split, err := partition.Vertical(q.Points, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Eps:          scaleEps(0.6),
		MinPts:       4,
		MaxCoord:     31,
		PaillierBits: 256,
		RSABits:      256,
		Engine:       compare.EngineMasked,
		Seed:         5,
	}
	var ra *Result
	err = transport.Run2(
		func(c transport.Conn) error {
			r, err := VerticalAlice(c, cfg, split.Alice)
			ra = r
			return err
		},
		func(c transport.Conn) error {
			_, err := VerticalBob(c, cfg, split.Bob)
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := verticalOracle(t, cfg, q.Points)
	if !metrics.ExactMatch(ra.Labels, want.Labels) {
		t.Error("vertical masked labels != plaintext DBSCAN")
	}
}

func TestArbitraryMatchesPlainDBSCAN(t *testing.T) {
	d := dataset.Blobs(20, 2, 0.4, 8)
	q, scaleEps := dataset.Quantize(d, 8)
	split, err := partition.ArbitraryRandom(q.Points, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(compare.EngineYMPP)
	cfg.Eps = scaleEps(0.9)

	var ra, rb *Result
	err = transport.Run2(
		func(c transport.Conn) error {
			r, err := ArbitraryAlice(c, cfg, split.Alice, split.Owners)
			ra = r
			return err
		},
		func(c transport.Conn) error {
			r, err := ArbitraryBob(c, cfg, split.Bob, split.Owners)
			rb = r
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Labels {
		if ra.Labels[i] != rb.Labels[i] {
			t.Fatalf("parties disagree at record %d", i)
		}
	}
	want := verticalOracle(t, cfg, q.Points)
	if !metrics.ExactMatch(ra.Labels, want.Labels) {
		t.Errorf("arbitrary labels %v != plaintext DBSCAN %v", ra.Labels, want.Labels)
	}
}

func TestArbitraryPureVerticalAndPureHorizontalCells(t *testing.T) {
	// Degenerate ownership patterns must still match plaintext DBSCAN:
	// all-Alice columns 0, all-Bob column 1 (pure vertical), and
	// row-alternating ownership (pure horizontal rows).
	d := dataset.Blobs(14, 2, 0.3, 12)
	q, scaleEps := dataset.Quantize(d, 8)
	n := len(q.Points)
	cfg := testCfg(compare.EngineMasked)
	cfg.Eps = scaleEps(0.9)

	patterns := map[string]func(i, j int) partition.Owner{
		"vertical-cells": func(i, j int) partition.Owner {
			if j == 0 {
				return partition.Alice
			}
			return partition.Bob
		},
		"horizontal-cells": func(i, j int) partition.Owner {
			if i%2 == 0 {
				return partition.Alice
			}
			return partition.Bob
		},
	}
	want := verticalOracle(t, cfg, q.Points)
	for name, ownerOf := range patterns {
		owners := make([][]partition.Owner, n)
		for i := range owners {
			owners[i] = make([]partition.Owner, 2)
			for j := range owners[i] {
				owners[i][j] = ownerOf(i, j)
			}
		}
		split, err := partition.Arbitrary(q.Points, owners)
		if err != nil {
			t.Fatal(err)
		}
		var ra *Result
		err = transport.Run2(
			func(c transport.Conn) error {
				r, err := ArbitraryAlice(c, cfg, split.Alice, split.Owners)
				ra = r
				return err
			},
			func(c transport.Conn) error {
				_, err := ArbitraryBob(c, cfg, split.Bob, split.Owners)
				return err
			},
		)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !metrics.ExactMatch(ra.Labels, want.Labels) {
			t.Errorf("%s: labels diverge from plaintext DBSCAN", name)
		}
	}
}

func TestHandshakeRejectsMismatchedEps(t *testing.T) {
	cfgA := testCfg(compare.EngineMasked)
	cfgB := cfgA
	cfgB.Eps = 3
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := HorizontalAlice(c, cfgA, testAlicePts)
			return err
		},
		func(c transport.Conn) error {
			_, err := HorizontalBob(c, cfgB, testBobPts)
			return err
		},
	)
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("err = %v, want ErrHandshake", err)
	}
}

func TestHandshakeRejectsMismatchedProtocol(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := HorizontalAlice(c, cfg, testAlicePts)
			return err
		},
		func(c transport.Conn) error {
			_, err := EnhancedHorizontalBob(c, cfg, testBobPts)
			return err
		},
	)
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("err = %v, want ErrHandshake", err)
	}
}

func TestHandshakeRejectsSameRole(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := HorizontalAlice(c, cfg, testAlicePts)
			return err
		},
		func(c transport.Conn) error {
			_, err := HorizontalAlice(c, cfg, testBobPts)
			return err
		},
	)
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("err = %v, want ErrHandshake", err)
	}
}

func TestHorizontalRejectsEmptyPoints(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	if _, err := HorizontalAlice(conn, cfg, nil); err == nil {
		t.Error("empty point set accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Eps: 0, MinPts: 3},
		{Eps: 1, MinPts: 0},
		{Eps: 1, MinPts: 3, MaxCoord: -1},
		{Eps: 1, MinPts: 3, Engine: "bogus"},
		{Eps: 1, MinPts: 3, Selection: "bogus"},
		{Eps: 1, MinPts: 3, ShareMaskBits: 99},
	}
	for i, c := range bad {
		if err := c.withDefaults().validate(); err == nil {
			t.Errorf("case %d: config %+v accepted", i, c)
		}
	}
	if err := testCfg(compare.EngineYMPP).withDefaults().validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestYMPPDomainTooLargeRejected(t *testing.T) {
	cfg := testCfg(compare.EngineYMPP)
	cfg.MaxCoord = 1 << 20 // bound = 2·2^40 ≫ YMPP MaxDomain
	pts := [][]float64{{0, 0}, {1, 1}}
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := HorizontalAlice(c, cfg, pts)
			return err
		},
		func(c transport.Conn) error {
			_, err := HorizontalBob(c, cfg, pts)
			return err
		},
	)
	if err == nil {
		t.Error("oversized YMPP domain accepted")
	}
}

func TestMeterTagsCoverProtocolPhases(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	err := transport.RunPair(ma, mb,
		func(c transport.Conn) error {
			_, err := HorizontalAlice(ma, cfg, testAlicePts)
			return err
		},
		func(c transport.Conn) error {
			_, err := HorizontalBob(mb, cfg, testBobPts)
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	merged := transport.Merge(ma, mb)
	for _, tag := range []string{"handshake", "hdp.op", "hdp.mp", "hdp.cmp"} {
		if merged[tag].Messages() == 0 {
			t.Errorf("no traffic recorded under tag %q: %v", tag, merged)
		}
	}
}
