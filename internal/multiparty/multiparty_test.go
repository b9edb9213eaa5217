package multiparty

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/transport"
)

// splitColumns slices an n×m matrix into k column groups (first groups get
// the remainder columns).
func splitColumns(points [][]float64, k int) [][][]float64 {
	m := len(points[0])
	base := m / k
	extra := m % k
	out := make([][][]float64, k)
	col := 0
	for p := 0; p < k; p++ {
		w := base
		if p < extra {
			w++
		}
		part := make([][]float64, len(points))
		for i, row := range points {
			part[i] = append([]float64{}, row[col:col+w]...)
		}
		out[p] = part
		col += w
	}
	return out
}

// runRing executes all k parties concurrently and returns their results.
func runRing(t *testing.T, cfg Config, slices [][][]float64) ([]*Result, error) {
	t.Helper()
	k := len(slices)
	parties := NewLocalRing(k)
	results := make([]*Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = Run(parties[p], cfg, slices[p])
			parties[p].Next.Close()
			parties[p].Prev.Close()
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

func testCfg(engine compare.EngineKind) Config {
	return Config{
		Eps:           3,
		MinPts:        3,
		MaxCoord:      15,
		PaillierBits:  256,
		RSABits:       256,
		Engine:        engine,
		ShareMaskBits: 8,
	}
}

// oracle computes plain DBSCAN on the joined records.
func oracle(t *testing.T, cfg Config, points [][]float64) dbscan.Result {
	t.Helper()
	enc := make([][]int64, len(points))
	for i, row := range points {
		r := make([]int64, len(row))
		for j, v := range row {
			r[j] = int64(v)
		}
		enc[i] = r
	}
	epsSq := int64(cfg.Eps * cfg.Eps)
	res, err := dbscan.ClusterInt(enc, epsSq, cfg.MinPts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func gridData(t *testing.T, n, dim int, seed int64) [][]float64 {
	t.Helper()
	d := dataset.BlobsDim(n, 2, dim, 0.3, seed)
	q, _ := dataset.Quantize(d, 16)
	return q.Points
}

func TestThreePartiesMatchPlainDBSCAN(t *testing.T) {
	points := gridData(t, 24, 3, 5)
	cfg := testCfg(compare.EngineMasked)
	results, err := runRing(t, cfg, splitColumns(points, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, cfg, points)
	for p, r := range results {
		if !metrics.ExactMatch(r.Labels, want.Labels) {
			t.Errorf("party %d labels diverge from plain DBSCAN", p)
		}
		if r.NumClusters != want.NumClusters {
			t.Errorf("party %d clusters = %d, want %d", p, r.NumClusters, want.NumClusters)
		}
		if r.PairDecisions == 0 {
			t.Errorf("party %d recorded no pair decisions", p)
		}
	}
}

func TestFourPartiesMatchPlainDBSCAN(t *testing.T) {
	points := gridData(t, 20, 4, 9)
	cfg := testCfg(compare.EngineMasked)
	results, err := runRing(t, cfg, splitColumns(points, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, cfg, points)
	for p, r := range results {
		if !metrics.ExactMatch(r.Labels, want.Labels) {
			t.Errorf("party %d labels diverge", p)
		}
	}
}

func TestYMPPEngineRing(t *testing.T) {
	points := gridData(t, 12, 3, 11)
	cfg := testCfg(compare.EngineYMPP)
	results, err := runRing(t, cfg, splitColumns(points, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, cfg, points)
	for p, r := range results {
		if !metrics.ExactMatch(r.Labels, want.Labels) {
			t.Errorf("party %d labels diverge under YMPP", p)
		}
	}
}

// With k = 2 the ring must agree with the two-party vertical protocol.
func TestTwoPartyRingMatchesCoreVertical(t *testing.T) {
	points := gridData(t, 18, 2, 7)
	cfg := testCfg(compare.EngineMasked)
	ringResults, err := runRing(t, cfg, splitColumns(points, 2))
	if err != nil {
		t.Fatal(err)
	}

	split, err := partition.Vertical(points, 1)
	if err != nil {
		t.Fatal(err)
	}
	coreCfg := core.Config{
		Eps: cfg.Eps, MinPts: cfg.MinPts, MaxCoord: cfg.MaxCoord,
		PaillierBits: 256, RSABits: 256, Engine: compare.EngineMasked, Seed: 3,
	}
	var coreRes *core.Result
	err = transport.Run2(
		func(c transport.Conn) error {
			r, err := core.VerticalAlice(c, coreCfg, split.Alice)
			coreRes = r
			return err
		},
		func(c transport.Conn) error {
			_, err := core.VerticalBob(c, coreCfg, split.Bob)
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.ExactMatch(ringResults[0].Labels, coreRes.Labels) {
		t.Error("2-party ring diverges from core vertical protocol")
	}
}

func TestHandshakeRejectsDisagreement(t *testing.T) {
	slices := splitColumns(gridData(t, 10, 3, 3), 3)
	for _, row := range agreedParams {
		t.Run(row.name, func(t *testing.T) {
			cfgs := mismatchedCfgs(3, 1, testCfg(compare.EngineMasked), row.set)
			parties := NewLocalRing(3)
			results := make([]*Result, 3)
			errs := make([]error, 3)
			var wg sync.WaitGroup
			for p := 0; p < 3; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					results[p], errs[p] = Run(parties[p], cfgs[p], slices[p])
					parties[p].Next.Close()
					parties[p].Prev.Close()
				}(p)
			}
			wg.Wait()
			checkHandshakeRejected(t, errs, 1, func(p int) bool { return results[p] != nil })
		})
	}
}

func TestPartyValidation(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	bad := []Party{
		{Index: 0, K: 1, Prev: a, Next: b},
		{Index: 2, K: 2, Prev: a, Next: b},
		{Index: 0, K: 2, Prev: nil, Next: b},
	}
	for i, p := range bad {
		if _, err := Run(p, testCfg(compare.EngineMasked), [][]float64{{1}}); err == nil {
			t.Errorf("case %d: invalid party accepted", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	parties := NewLocalRing(2)
	defer func() {
		for _, p := range parties {
			p.Next.Close()
			p.Prev.Close()
		}
	}()
	bad := testCfg(compare.EngineMasked)
	bad.Eps = 0
	if _, err := Run(parties[0], bad, [][]float64{{1}}); err == nil {
		t.Error("Eps=0 accepted")
	}
	bad = testCfg(compare.EngineMasked)
	bad.MinPts = 0
	if _, err := Run(parties[0], bad, [][]float64{{1}}); err == nil {
		t.Error("MinPts=0 accepted")
	}
	if _, err := Run(parties[0], testCfg(compare.EngineMasked), nil); err == nil {
		t.Error("empty records accepted")
	}
	if _, err := Run(parties[0], testCfg(compare.EngineMasked), [][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged records accepted")
	}
	if _, err := Run(parties[0], testCfg(compare.EngineMasked), [][]float64{{999}}); err == nil {
		t.Error("out-of-grid coordinate accepted")
	}
}

func TestNewLocalRingTopology(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		parties := NewLocalRing(k)
		if len(parties) != k {
			t.Fatalf("k=%d: got %d parties", k, len(parties))
		}
		// Sending on party p's Next must arrive at party (p+1)%k's Prev.
		for p := 0; p < k; p++ {
			msg := []byte{byte(p)}
			if err := parties[p].Next.Send(msg); err != nil {
				t.Fatal(err)
			}
			got, err := parties[(p+1)%k].Prev.Recv()
			if err != nil || got[0] != byte(p) {
				t.Fatalf("k=%d: ring edge %d broken: %v %v", k, p, got, err)
			}
		}
		for _, p := range parties {
			p.Next.Close()
			p.Prev.Close()
		}
	}
}

// Property: random small instances across ring sizes always match plain
// DBSCAN exactly.
func TestRingPropertyRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto-heavy property test")
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3; trial++ {
		k := 2 + rng.Intn(3) // 2..4 parties
		dim := k             // at least one column each
		n := 8 + rng.Intn(8)
		points := make([][]float64, n)
		for i := range points {
			row := make([]float64, dim)
			for j := range row {
				row[j] = float64(rng.Intn(16))
			}
			points[i] = row
		}
		cfg := testCfg(compare.EngineMasked)
		cfg.Eps = float64(2 + rng.Intn(3))
		results, err := runRing(t, cfg, splitColumns(points, k))
		if err != nil {
			t.Fatalf("trial %d (k=%d): %v", trial, k, err)
		}
		want := oracle(t, cfg, points)
		for p, r := range results {
			if !metrics.ExactMatch(r.Labels, want.Labels) {
				t.Errorf("trial %d: party %d of %d diverges", trial, p, k)
			}
		}
	}
}
