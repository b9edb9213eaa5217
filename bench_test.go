// Package repro_test holds the benchmark harness: one benchmark per
// evaluation artifact of the paper (experiments E1–E11 of
// internal/experiments).
// Each benchmark executes one representative unit of the corresponding
// experiment and reports the domain metric (bytes on the wire, secure
// comparisons, ARI) alongside wall time. The full sweep tables are
// produced by `go run ./cmd/ppdbscan experiments` (README, "Experiments
// and benchmarks").
package repro_test

import (
	"crypto/rand"
	"io"
	"math/big"
	"sync"
	"testing"

	"repro/internal/baseline/kumar"
	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/experiments"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/multiparty"
	"repro/internal/paillier"
	"repro/internal/partition"
	"repro/internal/privacy"
	"repro/internal/transport"
	"repro/internal/yao"
)

// runPair executes two protocol halves over metered pipes and returns the
// total bytes each direction carried.
func runPair(b *testing.B, alice, bob func(transport.Conn) error) int64 {
	b.Helper()
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	if err := transport.RunPair(ma, mb,
		func(transport.Conn) error { return alice(ma) },
		func(transport.Conn) error { return bob(mb) },
	); err != nil {
		b.Fatal(err)
	}
	return ma.Stats().BytesSent + mb.Stats().BytesSent
}

func maskedCfg(eps float64, minPts int, maxCoord int64) core.Config {
	return core.Config{
		Eps: eps, MinPts: minPts, MaxCoord: maxCoord,
		PaillierBits: 256, RSABits: 256,
		Engine: compare.EngineMasked, Seed: 1,
	}
}

func ymppCfg(eps float64, minPts int, maxCoord int64) core.Config {
	cfg := maskedCfg(eps, minPts, maxCoord)
	cfg.Engine = compare.EngineYMPP
	return cfg
}

// BenchmarkE1IntersectionAttack reproduces Figure 1: one Monte Carlo
// evaluation of the linked vs unlinked adversary's feasible regions.
func BenchmarkE1IntersectionAttack(b *testing.B) {
	victim := []float64{0, 0}
	bob := [][]float64{{0.75, 0}, {-0.37, 0.65}, {-0.37, -0.65}}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rep, err := privacy.Figure1Attack(victim, bob, 1.0, 100000, 1)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rep.Ratio
	}
	b.ReportMetric(ratio, "privacyRatio")
}

// BenchmarkE2PartitionModels round-trips all three §3.2 partition models.
func BenchmarkE2PartitionModels(b *testing.B) {
	d := dataset.BlobsDim(200, 3, 4, 0.5, 1)
	for i := 0; i < b.N; i++ {
		h, err := partition.HorizontalRandom(d.Points, 0.4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Reconstruct(); err != nil {
			b.Fatal(err)
		}
		v, err := partition.Vertical(d.Points, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Reconstruct(); err != nil {
			b.Fatal(err)
		}
		a, err := partition.ArbitraryRandom(d.Points, 0.5, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Reconstruct(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3HorizontalComm runs the faithful §4.2 protocol (YMPP engine)
// on a small grid and reports bytes per run — the O(c1·m·l(n−l) +
// c2·n0·l(n−l)) measurement point.
func BenchmarkE3HorizontalComm(b *testing.B) {
	d := dataset.Blobs(12, 2, 0.6, 1)
	q, scaleEps := dataset.Quantize(d, 16)
	split, err := partition.HorizontalRandom(q.Points, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ymppCfg(scaleEps(0.8), 3, 15)
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = runPair(b,
			func(c transport.Conn) error { _, err := core.HorizontalAlice(c, cfg, split.Alice); return err },
			func(c transport.Conn) error { _, err := core.HorizontalBob(c, cfg, split.Bob); return err },
		)
	}
	b.ReportMetric(float64(bytes), "wireBytes/run")
}

// BenchmarkE4VerticalComm is the §4.3.2 measurement point: O(c2·n0·n²).
func BenchmarkE4VerticalComm(b *testing.B) {
	d := dataset.Blobs(12, 2, 0.5, 1)
	q, scaleEps := dataset.Quantize(d, 16)
	split, err := partition.Vertical(q.Points, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ymppCfg(scaleEps(0.8), 3, 15)
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = runPair(b,
			func(c transport.Conn) error { _, err := core.VerticalAlice(c, cfg, split.Alice); return err },
			func(c transport.Conn) error { _, err := core.VerticalBob(c, cfg, split.Bob); return err },
		)
	}
	b.ReportMetric(float64(bytes), "wireBytes/run")
}

// BenchmarkE5EnhancedComm is the §5.1 measurement point, reporting both
// traffic and the leakage profile (order bits + core bits, no counts).
func BenchmarkE5EnhancedComm(b *testing.B) {
	d := dataset.Blobs(12, 2, 0.6, 1)
	q, scaleEps := dataset.Quantize(d, 8)
	split, err := partition.HorizontalRandom(q.Points, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ymppCfg(scaleEps(1.0), 3, 7)
	cfg.ShareMaskBits = 6
	var bytes int64
	var res *core.Result
	for i := 0; i < b.N; i++ {
		bytes = runPair(b,
			func(c transport.Conn) error {
				r, err := core.EnhancedHorizontalAlice(c, cfg, split.Alice)
				res = r
				return err
			},
			func(c transport.Conn) error {
				_, err := core.EnhancedHorizontalBob(c, cfg, split.Bob)
				return err
			},
		)
	}
	b.ReportMetric(float64(bytes), "wireBytes/run")
	b.ReportMetric(float64(res.Leakage.CoreBits), "coreBits/run")
	b.ReportMetric(float64(res.Leakage.NeighborCounts), "neighborCounts/run")
}

// BenchmarkE6Correctness runs the masked-engine horizontal protocol and
// scores it against its Algorithm 3/4 specification.
func BenchmarkE6Correctness(b *testing.B) {
	d := dataset.WithNoise(dataset.Blobs(40, 3, 0.35, 9), 6, 10)
	q, scaleEps := dataset.Quantize(d, 32)
	split, err := partition.HorizontalRandom(q.Points, 0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := maskedCfg(scaleEps(0.45), 4, 31)
	codec, err := cfg.Codec()
	if err != nil {
		b.Fatal(err)
	}
	encA, _ := codec.EncodePoints(split.Alice)
	encB, _ := codec.EncodePoints(split.Bob)
	epsSq, _ := codec.EpsSquared(cfg.Eps)
	match := 0.0
	for i := 0; i < b.N; i++ {
		var resA *core.Result
		runPair(b,
			func(c transport.Conn) error {
				r, err := core.HorizontalAlice(c, cfg, split.Alice)
				resA = r
				return err
			},
			func(c transport.Conn) error { _, err := core.HorizontalBob(c, cfg, split.Bob); return err },
		)
		want, _, _, _ := core.SimulateHorizontal(encA, encB, epsSq, cfg.MinPts)
		if metrics.ExactMatch(resA.Labels, want) {
			match = 1
		}
	}
	b.ReportMetric(match, "specMatch")
}

// BenchmarkE7ShapeAdvantage scores DBSCAN vs k-means on moons.
func BenchmarkE7ShapeAdvantage(b *testing.B) {
	d := dataset.Moons(300, 0.05, 7)
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := dbscan.Cluster(d.Points, dbscan.Params{Eps: 0.2, MinPts: 4})
		if err != nil {
			b.Fatal(err)
		}
		dAri, _ := metrics.ARI(res.Labels, d.Labels)
		km, err := kmeans.Cluster(d.Points, 2, 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		kAri, _ := metrics.ARI(km.Labels, d.Labels)
		gap = dAri - kAri
	}
	b.ReportMetric(gap, "ariGap")
}

// BenchmarkE8CompareEngines benchmarks one secure comparison per engine.
func BenchmarkE8CompareEngines(b *testing.B) {
	rsaKey, err := yao.GenerateRSAKey(rand.Reader, 256)
	if err != nil {
		b.Fatal(err)
	}
	paiKey, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		b.Fatal(err)
	}
	const bound = 1024
	b.Run("ympp", func(b *testing.B) {
		ae := &compare.YMPPAlice{Key: rsaKey, Max: bound}
		be := &compare.YMPPBob{Pub: &rsaKey.RSAPublicKey, Max: bound}
		var bytes int64
		for i := 0; i < b.N; i++ {
			bytes = runPair(b,
				func(c transport.Conn) error { _, err := ae.LessEq(c, 300); return err },
				func(c transport.Conn) error { _, err := be.LessEq(c, 700); return err },
			)
		}
		b.ReportMetric(float64(bytes), "wireBytes/cmp")
	})
	b.Run("masked", func(b *testing.B) {
		ae, be, err := compare.NewMaskedPair(paiKey, bound, 40)
		if err != nil {
			b.Fatal(err)
		}
		var bytes int64
		for i := 0; i < b.N; i++ {
			bytes = runPair(b,
				func(c transport.Conn) error { _, err := ae.LessEq(c, 300); return err },
				func(c transport.Conn) error { _, err := be.LessEq(c, 700); return err },
			)
		}
		b.ReportMetric(float64(bytes), "wireBytes/cmp")
	})
}

// BenchmarkE9Selection counts secure comparisons per strategy (each
// comparison is a full sub-protocol in the enhanced protocol, so the
// count is the cost).
func BenchmarkE9Selection(b *testing.B) {
	vals := make([]int64, 128)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % 100000)
	}
	for _, kind := range []core.SelectionKind{core.SelectionScan, core.SelectionQuick} {
		b.Run(string(kind), func(b *testing.B) {
			var comps int
			for i := 0; i < b.N; i++ {
				c, err := core.CountSelectionComparisons(64, kind, vals)
				if err != nil {
					b.Fatal(err)
				}
				comps = c
			}
			b.ReportMetric(float64(comps), "secureCmps")
		})
	}
}

// BenchmarkE10KeySizes times the Paillier primitives per modulus size.
func BenchmarkE10KeySizes(b *testing.B) {
	for _, bits := range []int{256, 512, 1024} {
		key, err := paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(bits), func(b *testing.B) {
			m := big.NewInt(123456)
			ct, err := key.Encrypt(rand.Reader, m)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ct2, err := key.Encrypt(rand.Reader, m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := key.Decrypt(ct2); err != nil {
					b.Fatal(err)
				}
				_ = ct
			}
		})
	}
}

// BenchmarkE11EndToEnd measures a full horizontal run at moderate scale
// with the masked engine (the scaling configuration).
func BenchmarkE11EndToEnd(b *testing.B) {
	d := dataset.Blobs(32, 3, 0.4, 1)
	q, scaleEps := dataset.Quantize(d, 64)
	split, err := partition.HorizontalRandom(q.Points, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := maskedCfg(scaleEps(0.6), 4, 63)
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = runPair(b,
			func(c transport.Conn) error { _, err := core.HorizontalAlice(c, cfg, split.Alice); return err },
			func(c transport.Conn) error { _, err := core.HorizontalBob(c, cfg, split.Bob); return err },
		)
	}
	b.ReportMetric(float64(bytes), "wireBytes/run")
}

// BenchmarkE12Multiparty runs the 3-party ring extension on one instance.
func BenchmarkE12Multiparty(b *testing.B) {
	d := dataset.BlobsDim(16, 2, 3, 0.3, 1)
	q, _ := dataset.Quantize(d, 16)
	slices := make([][][]float64, 3)
	for p := 0; p < 3; p++ {
		part := make([][]float64, len(q.Points))
		for i, row := range q.Points {
			part[i] = []float64{row[p]}
		}
		slices[p] = part
	}
	cfg := multiparty.Config{
		Eps: 3, MinPts: 3, MaxCoord: 15,
		PaillierBits: 256, RSABits: 256,
		Engine: compare.EngineMasked,
	}
	for i := 0; i < b.N; i++ {
		ring := multiparty.NewLocalRing(3)
		results := make([]*multiparty.Result, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for p := 0; p < 3; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				results[p], errs[p] = multiparty.Run(ring[p], cfg, slices[p])
				ring[p].Next.Close()
				ring[p].Prev.Close()
			}(p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExperimentSuiteQuick runs the entire experiment suite once in
// quick mode — the one-command regeneration path.
func BenchmarkExperimentSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Run("all", io.Discard, experiments.Options{Quick: true, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKumarBaselineDisclosure measures the baseline adversary-view
// computation used by E1.
func BenchmarkKumarBaselineDisclosure(b *testing.B) {
	d := dataset.Blobs(200, 3, 0.4, 3)
	alice, bobPts := d.Points[:100], d.Points[100:]
	for i := 0; i < b.N; i++ {
		if _, err := kumar.LinkedDisclosure(alice, bobPts, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(bits int) string {
	switch bits {
	case 256:
		return "paillier256"
	case 512:
		return "paillier512"
	default:
		return "paillier1024"
	}
}
