package experiments

import (
	"fmt"
	"io"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/transport"
)

// qualityCfg builds the masked-engine configuration used for the
// correctness and scaling experiments (large grids need the O(1) engine).
func qualityCfg(eps float64, minPts int, maxCoord int64, seed int64) core.Config {
	return core.Config{
		Eps:          eps,
		MinPts:       minPts,
		MaxCoord:     maxCoord,
		PaillierBits: 256,
		RSABits:      256,
		Engine:       compare.EngineMasked,
		Seed:         seed,
	}
}

// runE6 compares every private protocol's output against single-party
// DBSCAN over the union (the §3.3 desired outcome):
//
//   - vertical and arbitrary must match exactly;
//   - horizontal (basic and enhanced) must match the Algorithm 3/4
//     per-party semantics exactly, and is compared to full DBSCAN via ARI
//     to expose the bridged-data divergence its own-points-only
//     expansion implies (see core.HorizontalAlice).
func runE6(w io.Writer, opt Options) error {
	n := 60
	if opt.Quick {
		n = 30
	}
	type workload struct {
		name   string
		data   dataset.Dataset
		rawEps float64
		minPts int
	}
	workloads := []workload{
		{"blobs", dataset.WithNoise(dataset.Blobs(n, 3, 0.35, opt.seed()), n/10, opt.seed()+1), 0.5, 4},
		{"moons", dataset.Moons(n, 0.05, opt.seed()), 0.25, 4},
		{"rings", dataset.Rings(n, 0.04, opt.seed()), 0.45, 3},
		{"bridged", dataset.Bridged(n, opt.seed()), 0.45, 3},
	}

	var t table
	t.add("dataset", "protocol", "matchesSpec", "ariVsFullDBSCAN", "clusters(priv/full)")
	for _, wl := range workloads {
		q, scaleEps := dataset.Quantize(wl.data, 64)
		cfg := qualityCfg(scaleEps(wl.rawEps), wl.minPts, 63, opt.seed())
		epsSq, full, err := fullOracle(cfg, q.Points)
		if err != nil {
			return err
		}

		// Horizontal family: split so the bridge (appended last in the
		// bridged dataset) lands on Bob — the adversarial case.
		split, err := partition.HorizontalRandom(q.Points, 0.5, opt.seed()+2)
		if err != nil {
			return err
		}
		for _, proto := range []struct {
			name     string
			aliceFn  protoFn
			bobFn    protoFn
			enhanced bool
		}{
			{"horizontal", core.HorizontalAlice, core.HorizontalBob, false},
			{"enhanced", core.EnhancedHorizontalAlice, core.EnhancedHorizontalBob, true},
		} {
			run, err := runMeteredHorizontal(cfg, proto.aliceFn, proto.bobFn, split.Alice, split.Bob)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", wl.name, proto.name, err)
			}
			encA, encB, err := encodePair(cfg, split.Alice, split.Bob)
			if err != nil {
				return err
			}
			wantA, _, wantB, _ := core.SimulateHorizontal(encA, encB, epsSq, cfg.MinPts)
			spec := metrics.ExactMatch(run.resA.Labels, wantA) && metrics.ExactMatch(run.resB.Labels, wantB)
			combined := combineHorizontalLabels(split, run.resA.Labels, run.resB.Labels)
			ari, err := metrics.ARI(combined, full.Labels)
			if err != nil {
				return err
			}
			t.add(wl.name, proto.name, fmt.Sprint(spec), fmt.Sprintf("%.3f", ari),
				fmt.Sprintf("%d/%d", run.resA.NumClusters+run.resB.NumClusters, full.NumClusters))
		}

		// Vertical: exact agreement required.
		vs, err := partition.Vertical(q.Points, 1)
		if err != nil {
			return err
		}
		vrun, err := runMeteredPair(
			func(c transport.Conn) (*core.Result, error) { return core.VerticalAlice(c, cfg, vs.Alice) },
			func(c transport.Conn) (*core.Result, error) { return core.VerticalBob(c, cfg, vs.Bob) },
		)
		if err != nil {
			return fmt.Errorf("%s/vertical: %w", wl.name, err)
		}
		vAri, _ := metrics.ARI(vrun.resA.Labels, full.Labels)
		t.add(wl.name, "vertical", fmt.Sprint(metrics.ExactMatch(vrun.resA.Labels, full.Labels)),
			fmt.Sprintf("%.3f", vAri), fmt.Sprintf("%d/%d", vrun.resA.NumClusters, full.NumClusters))

		// Arbitrary: exact agreement required.
		as, err := partition.ArbitraryRandom(q.Points, 0.5, opt.seed()+3)
		if err != nil {
			return err
		}
		arun, err := runMeteredPair(
			func(c transport.Conn) (*core.Result, error) {
				return core.ArbitraryAlice(c, cfg, as.Alice, as.Owners)
			},
			func(c transport.Conn) (*core.Result, error) {
				return core.ArbitraryBob(c, cfg, as.Bob, as.Owners)
			},
		)
		if err != nil {
			return fmt.Errorf("%s/arbitrary: %w", wl.name, err)
		}
		aAri, _ := metrics.ARI(arun.resA.Labels, full.Labels)
		t.add(wl.name, "arbitrary", fmt.Sprint(metrics.ExactMatch(arun.resA.Labels, full.Labels)),
			fmt.Sprintf("%.3f", aAri), fmt.Sprintf("%d/%d", arun.resA.NumClusters, full.NumClusters))
	}
	t.write(w)
	fmt.Fprintln(w, "matchesSpec: exact agreement with the protocol's functional specification")
	fmt.Fprintln(w, "(Algorithm 3/4 simulation for horizontal, full DBSCAN for vertical/arbitrary).")
	fmt.Fprintln(w, "The bridged rows show Algorithm 3/4's own semantics diverging from full DBSCAN")
	fmt.Fprintln(w, "when density chains pass through the other party's points.")
	return nil
}

// fullOracle encodes points and runs single-party DBSCAN on the union.
func fullOracle(cfg core.Config, points [][]float64) (int64, dbscan.Result, error) {
	codec, err := cfg.Codec()
	if err != nil {
		return 0, dbscan.Result{}, err
	}
	enc, err := codec.EncodePoints(points)
	if err != nil {
		return 0, dbscan.Result{}, err
	}
	epsSq, err := codec.EpsSquared(cfg.Eps)
	if err != nil {
		return 0, dbscan.Result{}, err
	}
	full, err := dbscan.ClusterInt(enc, epsSq, cfg.MinPts)
	return epsSq, full, err
}

func encodePair(cfg core.Config, a, b [][]float64) ([][]int64, [][]int64, error) {
	codec, err := cfg.Codec()
	if err != nil {
		return nil, nil, err
	}
	encA, err := codec.EncodePoints(a)
	if err != nil {
		return nil, nil, err
	}
	encB, err := codec.EncodePoints(b)
	if err != nil {
		return nil, nil, err
	}
	return encA, encB, nil
}

// combineHorizontalLabels merges the two parties' local labelings into one
// global labelling over the original record order, offsetting Bob's
// cluster ids past Alice's.
func combineHorizontalLabels(split partition.HorizontalSplit, aliceLabels, bobLabels []int) []int {
	n := len(split.AliceIdx) + len(split.BobIdx)
	out := make([]int, n)
	maxA := 0
	for _, l := range aliceLabels {
		if l > maxA {
			maxA = l
		}
	}
	for k, idx := range split.AliceIdx {
		out[idx] = aliceLabels[k]
	}
	for k, idx := range split.BobIdx {
		l := bobLabels[k]
		if l > 0 {
			l += maxA
		}
		out[idx] = l
	}
	return out
}

// runE7 reproduces the introduction's motivation: DBSCAN handles
// arbitrarily-shaped clusters and noise that k-means cannot.
func runE7(w io.Writer, opt Options) error {
	n := 400
	if opt.Quick {
		n = 150
	}
	type workload struct {
		name   string
		data   dataset.Dataset
		eps    float64
		minPts int
		k      int
	}
	workloads := []workload{
		{"blobs", dataset.Blobs(n, 3, 0.25, opt.seed()), 0.5, 4, 3},
		{"moons", dataset.Moons(n, 0.05, opt.seed()), 0.2, 4, 2},
		{"rings", dataset.Rings(n, 0.04, opt.seed()), 0.35, 3, 2},
	}
	var t table
	t.add("dataset", "dbscanARI", "kmeansARI", "dbscanNMI", "kmeansNMI", "dbscanClusters", "winner")
	for _, wl := range workloads {
		res, err := dbscan.Cluster(wl.data.Points, dbscan.Params{Eps: wl.eps, MinPts: wl.minPts})
		if err != nil {
			return err
		}
		dAri, err := metrics.ARI(res.Labels, wl.data.Labels)
		if err != nil {
			return err
		}
		dNmi, err := metrics.NMI(res.Labels, wl.data.Labels)
		if err != nil {
			return err
		}
		km, err := kmeans.Cluster(wl.data.Points, wl.k, 100, opt.seed())
		if err != nil {
			return err
		}
		kAri, err := metrics.ARI(km.Labels, wl.data.Labels)
		if err != nil {
			return err
		}
		kNmi, err := metrics.NMI(km.Labels, wl.data.Labels)
		if err != nil {
			return err
		}
		winner := "dbscan"
		if kAri > dAri {
			winner = "kmeans"
		}
		t.add(wl.name, fmt.Sprintf("%.3f", dAri), fmt.Sprintf("%.3f", kAri),
			fmt.Sprintf("%.3f", dNmi), fmt.Sprintf("%.3f", kNmi),
			fmt.Sprint(res.NumClusters), winner)
	}
	t.write(w)
	// The k-dist heuristic from Ester et al. §4.2: parameters need not be
	// guessed — show the suggested Eps per workload.
	for _, wl := range workloads {
		sug, err := dbscan.SuggestEps(wl.data.Points, wl.minPts-1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "k-dist suggested eps for %s: %.3f (used %.3f)\n", wl.name, sug, wl.eps)
	}
	return nil
}
