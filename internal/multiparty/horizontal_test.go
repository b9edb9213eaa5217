package multiparty

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// runMesh executes all k horizontal parties concurrently.
func runMesh(t *testing.T, cfgs []Config, pointSets [][][]float64) ([]*HorizontalResult, []error) {
	t.Helper()
	k := len(pointSets)
	mesh := NewLocalMesh(k)
	results := make([]*HorizontalResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			party := HorizontalParty{Index: p, K: k, Conns: mesh[p]}
			results[p], errs[p] = RunHorizontal(party, cfgs[p], pointSets[p])
			for q, c := range mesh[p] {
				if q != p {
					c.Close()
				}
			}
		}(p)
	}
	wg.Wait()
	return results, errs
}

func sameCfgs(k int, cfg Config) []Config {
	out := make([]Config, k)
	for i := range out {
		out[i] = cfg
	}
	return out
}

// encodeSet converts float grid points to int64 for the simulation oracle.
func encodeSet(points [][]float64) [][]int64 {
	out := make([][]int64, len(points))
	for i, row := range points {
		r := make([]int64, len(row))
		for j, v := range row {
			r[j] = int64(v)
		}
		out[i] = r
	}
	return out
}

// The k-party oracle: party p's pass equals SimulateHorizontalPass with
// the union of all other parties' points as the peer set (counts are
// additive across peers).
func kPartyOracle(pointSets [][][]float64, epsSq int64, minPts int, p int) ([]int, int) {
	var others [][]int64
	for q, set := range pointSets {
		if q == p {
			continue
		}
		others = append(others, encodeSet(set)...)
	}
	return core.SimulateHorizontalPass(encodeSet(pointSets[p]), others, epsSq, minPts)
}

var threePartyPoints = [][][]float64{
	{{0, 0}, {1, 0}, {0, 1}, {6, 6}},
	{{1, 1}, {2, 1}, {6, 5}, {5, 6}},
	{{1, 2}, {2, 2}, {6, 7}, {3, 4}},
}

func TestThreePartyHorizontalMatchesOracle(t *testing.T) {
	cfg := Config{
		Eps: 2, MinPts: 3, MaxCoord: 7,
		PaillierBits: 256, RSABits: 256,
		Engine: compare.EngineMasked,
	}
	results, errs := runMesh(t, sameCfgs(3, cfg), threePartyPoints)
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	epsSq := int64(4)
	for p, r := range results {
		want, wantK := kPartyOracle(threePartyPoints, epsSq, cfg.MinPts, p)
		if !metrics.ExactMatch(r.Labels, want) {
			t.Errorf("party %d labels %v != oracle %v", p, r.Labels, want)
		}
		if r.NumClusters != wantK {
			t.Errorf("party %d clusters = %d, want %d", p, r.NumClusters, wantK)
		}
		if r.RegionQueries == 0 {
			t.Errorf("party %d recorded no region queries", p)
		}
	}
}

func TestThreePartyHorizontalYMPP(t *testing.T) {
	cfg := Config{
		Eps: 2, MinPts: 3, MaxCoord: 7,
		PaillierBits: 256, RSABits: 256,
		Engine: compare.EngineYMPP,
	}
	results, errs := runMesh(t, sameCfgs(3, cfg), threePartyPoints)
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	for p, r := range results {
		want, _ := kPartyOracle(threePartyPoints, 4, cfg.MinPts, p)
		if !metrics.ExactMatch(r.Labels, want) {
			t.Errorf("party %d diverges under YMPP", p)
		}
	}
}

// With k = 2 the mesh protocol must agree with core's two-party protocol.
func TestTwoPartyMeshMatchesCoreHorizontal(t *testing.T) {
	pointSets := [][][]float64{
		{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {6, 6}},
		{{1, 2}, {2, 1}, {2, 2}, {6, 5}, {5, 6}, {6, 7}},
	}
	cfg := Config{
		Eps: 2, MinPts: 3, MaxCoord: 7,
		PaillierBits: 256, RSABits: 256,
		Engine: compare.EngineMasked,
	}
	results, errs := runMesh(t, sameCfgs(2, cfg), pointSets)
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}

	coreCfg := core.Config{
		Eps: cfg.Eps, MinPts: cfg.MinPts, MaxCoord: cfg.MaxCoord,
		PaillierBits: 256, RSABits: 256, Engine: compare.EngineMasked, Seed: 9,
	}
	var ra, rb *core.Result
	err := transport.Run2(
		func(c transport.Conn) error {
			r, err := core.HorizontalAlice(c, coreCfg, pointSets[0])
			ra = r
			return err
		},
		func(c transport.Conn) error {
			r, err := core.HorizontalBob(c, coreCfg, pointSets[1])
			rb = r
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.ExactMatch(results[0].Labels, ra.Labels) {
		t.Error("mesh party 0 diverges from core HorizontalAlice")
	}
	if !metrics.ExactMatch(results[1].Labels, rb.Labels) {
		t.Error("mesh party 1 diverges from core HorizontalBob")
	}
}

// agreedParams is one row per agreed parameter (core.Params): set gives
// every party the same base value, and the disagreeing party (odd) a
// different one. Both the mesh edges' handshake and the ring token must
// reject every row at establishment.
var agreedParams = []struct {
	name string
	set  func(c *Config, odd bool)
}{
	{"Eps", func(c *Config, odd bool) {
		if odd {
			c.Eps++
		}
	}},
	{"MinPts", func(c *Config, odd bool) {
		if odd {
			c.MinPts++
		}
	}},
	{"MaxCoord", func(c *Config, odd bool) {
		if odd {
			c.MaxCoord = 31
		}
	}},
	{"Engine", func(c *Config, odd bool) {
		if odd {
			c.Engine = compare.EngineYMPP
		}
	}},
	{"CmpMaskBits", func(c *Config, odd bool) {
		if odd {
			c.CmpMaskBits = 20
		}
	}},
	{"ShareMaskBits", func(c *Config, odd bool) {
		if odd {
			c.ShareMaskBits = 6
		}
	}},
	{"Batching", func(c *Config, odd bool) {
		c.Packing = core.PackOff
		if odd {
			c.Batching = core.BatchModeSequential
		}
	}},
	{"Packing", func(c *Config, odd bool) {
		if odd {
			c.Packing = core.PackFull
		}
	}},
	{"Pruning", func(c *Config, odd bool) {
		if odd {
			c.Pruning = core.PruneOff
		}
	}},
	{"PruneQuantum", func(c *Config, odd bool) {
		if odd {
			c.PruneQuantum = 8
		}
	}},
	{"Parallel", func(c *Config, odd bool) {
		// Both widths multiplex their edges, so the handshake itself (on
		// channel 0) gets to compare them.
		c.Parallel = 2
		if odd {
			c.Parallel = 4
		}
	}},
}

// mismatchedCfgs builds k configurations for one agreedParams row, party
// odd disagreeing.
func mismatchedCfgs(k, odd int, base Config, set func(c *Config, odd bool)) []Config {
	cfgs := sameCfgs(k, base)
	for p := range cfgs {
		set(&cfgs[p], p == odd)
	}
	return cfgs
}

// checkHandshakeRejected asserts the outcome every agreedParams row must
// have: some party reports ErrHandshake, and the disagreeing party comes
// back with an error and no result (gotResult reports whether party p
// returned labels). The runners close every connection as each party
// returns, so a hang would show up as the test timing out.
func checkHandshakeRejected(t *testing.T, errs []error, odd int, gotResult func(p int) bool) {
	t.Helper()
	found := false
	for _, err := range errs {
		found = found || errors.Is(err, ErrHandshake)
	}
	if !found {
		t.Errorf("no party reported ErrHandshake: %v", errs)
	}
	if !errors.Is(ErrHandshake, core.ErrHandshake) {
		t.Error("multiparty.ErrHandshake is not core.ErrHandshake")
	}
	if errs[odd] == nil || gotResult(odd) {
		t.Errorf("disagreeing party %d returned labels (err = %v)", odd, errs[odd])
	}
}

func TestHorizontalMeshHandshakeMismatch(t *testing.T) {
	base := Config{
		Eps: 2, MinPts: 3, MaxCoord: 7,
		PaillierBits: 256, RSABits: 256,
		Engine: compare.EngineMasked,
	}
	for _, row := range agreedParams {
		t.Run(row.name, func(t *testing.T) {
			results, errs := runMesh(t, mismatchedCfgs(3, 2, base, row.set), threePartyPoints)
			checkHandshakeRejected(t, errs, 2, func(p int) bool { return results[p] != nil })
		})
	}
}

func TestHorizontalPartyValidation(t *testing.T) {
	cfg := Config{Eps: 2, MinPts: 3, MaxCoord: 7, PaillierBits: 256, RSABits: 256, Engine: compare.EngineMasked}
	if _, err := RunHorizontal(HorizontalParty{Index: 0, K: 1, Conns: []transport.Conn{nil}}, cfg, [][]float64{{1, 1}}); err == nil {
		t.Error("k=1 accepted")
	}
	mesh := NewLocalMesh(2)
	if _, err := RunHorizontal(HorizontalParty{Index: 0, K: 2, Conns: mesh[0][:1]}, cfg, [][]float64{{1, 1}}); err == nil {
		t.Error("short conns accepted")
	}
	if _, err := RunHorizontal(HorizontalParty{Index: 0, K: 2, Conns: mesh[0]}, cfg, nil); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := RunHorizontal(HorizontalParty{Index: 0, K: 2, Conns: mesh[0]}, cfg, [][]float64{{1, 1}, {1}}); err == nil {
		t.Error("ragged points accepted")
	}
	for _, row := range mesh {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
}

func TestNewLocalMeshTopology(t *testing.T) {
	mesh := NewLocalMesh(3)
	for p := 0; p < 3; p++ {
		for q := 0; q < 3; q++ {
			if p == q {
				if mesh[p][q] != nil {
					t.Errorf("self connection at %d", p)
				}
				continue
			}
			if err := mesh[p][q].Send([]byte{byte(10*p + q)}); err != nil {
				t.Fatal(err)
			}
			got, err := mesh[q][p].Recv()
			if err != nil || got[0] != byte(10*p+q) {
				t.Fatalf("edge %d->%d broken", p, q)
			}
		}
	}
}
