package dbscan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/metrics"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Eps: 0, MinPts: 3},
		{Eps: -1, MinPts: 3},
		{Eps: 1, MinPts: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Params %+v accepted", p)
		}
	}
	if err := (Params{Eps: 0.5, MinPts: 1}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestTwoObviousClusters(t *testing.T) {
	points := [][]float64{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, // cluster A
		{10, 10}, {10, 11}, {11, 10}, {11, 11}, // cluster B
		{100, 100}, // noise
	}
	res, err := Cluster(points, Params{Eps: 1.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", res.NumClusters)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[0] != res.Labels[3] {
		t.Errorf("cluster A split: %v", res.Labels[:4])
	}
	if res.Labels[4] != res.Labels[7] {
		t.Errorf("cluster B split: %v", res.Labels[4:8])
	}
	if res.Labels[0] == res.Labels[4] {
		t.Errorf("clusters merged: %v", res.Labels)
	}
	if res.Labels[8] != Noise {
		t.Errorf("outlier labelled %d, want Noise", res.Labels[8])
	}
}

func TestAllNoiseWhenSparse(t *testing.T) {
	points := [][]float64{{0, 0}, {10, 0}, {20, 0}, {30, 0}}
	res, err := Cluster(points, Params{Eps: 1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Errorf("NumClusters = %d, want 0", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != Noise {
			t.Errorf("point %d labelled %d, want Noise", i, l)
		}
	}
}

func TestSingleClusterAllPoints(t *testing.T) {
	var points [][]float64
	for i := 0; i < 20; i++ {
		points = append(points, []float64{float64(i) * 0.1, 0})
	}
	res, err := Cluster(points, Params{Eps: 0.15, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != 1 {
			t.Errorf("point %d labelled %d, want 1", i, l)
		}
	}
}

func TestMinPtsOneMakesEverythingCore(t *testing.T) {
	points := [][]float64{{0, 0}, {100, 100}}
	res, err := Cluster(points, Params{Eps: 1, MinPts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Errorf("NumClusters = %d, want 2 (each point its own core)", res.NumClusters)
	}
}

func TestBorderPointJoinsFirstCluster(t *testing.T) {
	// p2 is border to both dense groups; classic DBSCAN assigns it to the
	// cluster expanded first (deterministic given ordering).
	points := [][]float64{
		{0, 0}, {1, 0}, // group 1 (dense with p2)
		{2, 0},         // border point
		{3, 0}, {4, 0}, // group 2 (dense with p2)
	}
	res, err := Cluster(points, Params{Eps: 1.0, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[2] != res.Labels[0] && res.Labels[2] != res.Labels[3] {
		t.Errorf("border point labelled %d, expected one of the clusters", res.Labels[2])
	}
}

func TestNoiseReclaimedAsBorder(t *testing.T) {
	// Point 0 is isolated from the first-visited cluster but is a border
	// of the later one; the Algorithm 6 control flow relabels NOISE.
	points := [][]float64{
		{5, 5},                 // visited first, initially noise
		{0, 0}, {1, 0}, {2, 0}, // dense chain...
		{3, 0}, {4, 0}, {4.5, 4.5}, // ...reaching toward point 0
	}
	res, err := Cluster(points, Params{Eps: 1.6, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] == Noise {
		t.Skip("geometry did not exercise the reclaim path")
	}
	if res.Labels[0] != res.Labels[1] {
		t.Errorf("reclaimed point in cluster %d, chain in %d", res.Labels[0], res.Labels[1])
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Cluster(nil, Params{Eps: 1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Errorf("empty input: %+v", res)
	}
}

func TestClusterIntMatchesFloatOnGrid(t *testing.T) {
	// On integer coordinates with integer eps, the int and float paths
	// must agree exactly.
	d := dataset.Blobs(120, 3, 0.4, 1)
	q, _ := dataset.Quantize(d, 64)
	intPts := make([][]int64, len(q.Points))
	for i, p := range q.Points {
		intPts[i] = []int64{int64(p[0]), int64(p[1])}
	}
	const eps, minPts = 4, 4
	rf, err := Cluster(q.Points, Params{Eps: eps, MinPts: minPts})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := ClusterInt(intPts, eps*eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.ExactMatch(rf.Labels, ri.Labels) {
		t.Error("ClusterInt diverges from Cluster on grid data")
	}
}

func TestClusterIntValidation(t *testing.T) {
	if _, err := ClusterInt(nil, -1, 3); err == nil {
		t.Error("negative epsSq accepted")
	}
	if _, err := ClusterInt(nil, 4, 0); err == nil {
		t.Error("MinPts 0 accepted")
	}
}

func TestIndexedMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := dataset.WithNoise(dataset.Moons(200, 0.05, seed), 20, seed+100)
		p := Params{Eps: 0.25, MinPts: 4}
		brute, err := Cluster(d.Points, p)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := ClusterIndexed(d.Points, p)
		if err != nil {
			t.Fatal(err)
		}
		if !metrics.ExactMatch(brute.Labels, indexed.Labels) {
			t.Errorf("seed %d: indexed labels diverge from brute force", seed)
		}
	}
}

func TestMoonsSeparated(t *testing.T) {
	d := dataset.Moons(300, 0.04, 7)
	res, err := Cluster(d.Points, Params{Eps: 0.2, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("moons: NumClusters = %d, want 2", res.NumClusters)
	}
	ari, err := metrics.ARI(res.Labels, d.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Errorf("moons ARI = %.3f, want ≥ 0.95", ari)
	}
}

func TestRingsSurroundedCluster(t *testing.T) {
	// "DBSCAN ... can even find a cluster completely surrounded by a
	// different cluster" — paper introduction.
	d := dataset.Rings(400, 0.05, 3)
	res, err := Cluster(d.Points, Params{Eps: 0.35, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("rings: NumClusters = %d, want 2", res.NumClusters)
	}
	ari, _ := metrics.ARI(res.Labels, d.Labels)
	if ari < 0.95 {
		t.Errorf("rings ARI = %.3f, want ≥ 0.95", ari)
	}
}

// Property: labels are a valid DBSCAN output — every clustered point has
// either ≥ MinPts neighbours (core) or a core neighbour in the same
// cluster (border); every noise point is non-core.
func TestDBSCANInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		p := Params{Eps: 1.2, MinPts: 3}
		res, err := Cluster(points, p)
		if err != nil {
			return false
		}
		epsSq := p.Eps * p.Eps
		neighbors := func(i int) []int {
			var out []int
			for j := range points {
				if distSqFloat(points[i], points[j]) <= epsSq {
					out = append(out, j)
				}
			}
			return out
		}
		for i := range points {
			nb := neighbors(i)
			core := len(nb) >= p.MinPts
			switch {
			case res.Labels[i] == Noise:
				if core {
					return false // core points are never noise
				}
			case res.Labels[i] >= 1:
				if core {
					continue
				}
				// Border: must have a core neighbour in the same cluster.
				ok := false
				for _, j := range nb {
					if res.Labels[j] == res.Labels[i] && len(neighbors(j)) >= p.MinPts {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			default:
				return false // no point may remain Unclassified
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: density-reachability is honoured — two core points within Eps
// of each other always share a cluster (Definition 1/3 connectivity).
func TestCoreChainConnectivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(50)
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64() * 6, rng.Float64() * 6}
		}
		p := Params{Eps: 1.0, MinPts: 3}
		res, err := Cluster(points, p)
		if err != nil {
			return false
		}
		epsSq := p.Eps * p.Eps
		counts := make([]int, n)
		for i := range points {
			for j := range points {
				if distSqFloat(points[i], points[j]) <= epsSq {
					counts[i]++
				}
			}
		}
		for i := range points {
			if counts[i] < p.MinPts {
				continue
			}
			for j := range points {
				if counts[j] < p.MinPts || distSqFloat(points[i], points[j]) > epsSq {
					continue
				}
				if res.Labels[i] != res.Labels[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestClusterCoreOneTestPerQuery: ClusterCore calls core exactly once per
// neighbors call, right after it, with the same point and the
// neighbourhood just returned — the horizontal protocols' walks tally
// their region queries (and the basic one its query-level Ledger) in core
// — and only a point whose core test failed is queried again. With core a
// per-point bit rather than a count threshold, so the expansion takes both
// branches at every size.
func TestClusterCoreOneTestPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	requeries := 0 // vacuity guard: some point is queried twice
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(30)
		points := make([][]float64, n)
		coreBit := make([]bool, n)
		for i := range points {
			points[i] = []float64{float64(rng.Intn(8)), float64(rng.Intn(8))}
			coreBit[i] = rng.Intn(3) > 0
		}
		var asked, tested []int
		var pending []int // the neighbourhood of the last query not yet tested
		neighbors := func(i int) []int {
			if pending != nil {
				t.Fatalf("trial %d: query of %d before the core test of the previous one", trial, i)
			}
			asked = append(asked, i)
			var out []int
			for j := range points {
				if distSqFloat(points[i], points[j]) <= 2 {
					out = append(out, j)
				}
			}
			pending = out
			return out
		}
		labels, k := ClusterCore(n, neighbors, func(i int, nbrs []int) bool {
			if pending == nil || !metrics.ExactMatch(nbrs, pending) || asked[len(asked)-1] != i {
				t.Fatalf("trial %d: core(%d, %v) after the query of %d returned %v", trial, i, nbrs, asked[len(asked)-1], pending)
			}
			tested, pending = append(tested, i), nil
			return coreBit[i]
		})
		if pending != nil || len(asked) != len(tested) {
			t.Fatalf("trial %d: %d queries, %d core tests", trial, len(asked), len(tested))
		}
		seen := make(map[int]bool)
		for _, i := range asked {
			if seen[i] {
				requeries++
				// The enhanced protocol's walk counts a re-query by this.
				if coreBit[i] {
					t.Errorf("trial %d: core point %d queried again", trial, i)
				}
			}
			seen[i] = true
		}
		if len(seen) != n {
			t.Errorf("trial %d: %d of %d points queried", trial, len(seen), n)
		}
		for i, l := range labels {
			if coreBit[i] && (l < 1 || l > k) {
				t.Errorf("trial %d: core point %d labelled %d of %d clusters", trial, i, l, k)
			}
		}
	}
	if requeries == 0 {
		t.Error("vacuous: no point was queried twice")
	}
}

func BenchmarkClusterBrute500(b *testing.B) {
	d := dataset.Blobs(500, 4, 0.3, 1)
	p := Params{Eps: 0.5, MinPts: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(d.Points, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterIndexed500(b *testing.B) {
	d := dataset.Blobs(500, 4, 0.3, 1)
	p := Params{Eps: 0.5, MinPts: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterIndexed(d.Points, p); err != nil {
			b.Fatal(err)
		}
	}
}
