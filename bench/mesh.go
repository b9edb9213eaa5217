package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/multiparty"
	"repro/internal/transport"
)

// meshSpec sizes the k-party horizontal mesh.
type meshSpec struct {
	k, perParty   int
	paillier, rsa int
}

func (p meshSpec) String() string {
	return fmt.Sprintf("mesh k=%d × %d points grid=%d eps=%d paillier=%d engine=masked W=1",
		p.k, p.perParty, layout64.grid, layout64.cell, p.paillier)
}

type meshInstance struct {
	spec  meshSpec
	cfg   multiparty.Config
	parts [][][]float64
	want  [][]int
	text  string
}

func buildMesh(spec meshSpec, seed int64) (*meshInstance, error) {
	at := layout64.place(rand.New(rand.NewSource(seed)))
	two := benchConfig(seed, layout64, spec.paillier, spec.rsa, compare.EngineMasked, 1)
	in := &meshInstance{
		spec: spec,
		cfg: multiparty.Config{
			Eps: two.Eps, MinPts: two.MinPts, MaxCoord: two.MaxCoord,
			PaillierBits: two.PaillierBits, RSABits: two.RSABits, Engine: two.Engine,
			Batching: two.Batching, Packing: two.Packing, Pruning: two.Pruning, Parallel: 1,
		},
	}
	var text strings.Builder
	for p, hand := range deal(layout64.template(spec.k*spec.perParty), spec.k) {
		in.parts = append(in.parts, at.points(hand))
		fmt.Fprintf(&text, "party %d %v\n", p, in.parts[p])
	}
	in.text = text.String()
	// Each party's pass is Algorithm 3/4 with every other party's points
	// contributing to the density counts.
	for p := range in.parts {
		var others [][]float64
		for q, part := range in.parts {
			if q != p {
				others = append(others, part...)
			}
		}
		own, peer, epsSq, err := encodeSides(two, in.parts[p], others)
		if err != nil {
			return nil, err
		}
		labels, _ := core.SimulateHorizontalPass(own, peer, epsSq, two.MinPts)
		in.want = append(in.want, labels)
	}
	return in, nil
}

func (in *meshInstance) inputs() string { return in.text }

// config is the two-party configuration of one mesh edge.
func (in *meshInstance) config() core.Config {
	return benchConfig(0, layout64, in.spec.paillier, in.spec.rsa, compare.EngineMasked, 1)
}

func (in *meshInstance) exhaustivePairs() int64 {
	k, n := int64(in.spec.k), int64(in.spec.perParty)
	return k * n * (k - 1) * n
}

func (in *meshInstance) plain() ([][]int64, int64, int, error) {
	return plainOf(in.config(), concat(in.parts...))
}

// meshRun is what one fresh mesh observed.
type meshRun struct {
	setup, run float64
	results    []*multiparty.HorizontalResult
	wire       transport.Stats // summed over every party's edges during the Run
	alloc      uint64
	window     window
}

// cold builds a fresh in-process mesh, establishes every party's session
// and — unless setupOnly — times Run on all parties until the last one
// returns.
func (in *meshInstance) cold(rec *recorder, setupOnly bool) (meshRun, error) {
	k := in.spec.k
	raw := multiparty.NewLocalMesh(k)
	meters := make([][]*transport.Meter, k)
	conns := make([][]transport.Conn, k)
	for p := range raw {
		meters[p] = make([]*transport.Meter, k)
		conns[p] = make([]transport.Conn, k)
		for q, c := range raw[p] {
			if c != nil {
				meters[p][q] = rec.metered(c, fmt.Sprintf("p%d", p), fmt.Sprintf("p%d-p%d", min(p, q), max(p, q)), false)
				conns[p][q] = meters[p][q]
			}
		}
	}
	defer func() {
		for _, row := range meters {
			for _, m := range row {
				if m != nil {
					m.Close()
				}
			}
		}
	}()
	total := func() transport.Stats {
		var s transport.Stats
		for _, row := range meters {
			for _, m := range row {
				if m != nil {
					s = s.Add(m.Stats())
				}
			}
		}
		return s
	}

	out := meshRun{results: make([]*multiparty.HorizontalResult, k)}
	sessions := make([]*multiparty.MeshSession, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	out.window.open = rec.now()
	start := time.Now()
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sessions[p], errs[p] = multiparty.NewMeshSession(multiparty.HorizontalParty{Index: p, K: k, Conns: conns[p]}, in.cfg, in.parts[p])
			if p == 0 {
				out.setup = secs(time.Since(start))
			}
		}(p)
	}
	wg.Wait()
	out.window.ready = rec.now()
	for p, err := range errs {
		if err != nil {
			return out, fmt.Errorf("party %d establish: %w", p, err)
		}
	}
	if setupOnly {
		return out, nil
	}
	wire, heap := total(), heapAllocated()
	out.window.from = rec.now()
	start = time.Now()
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			out.results[p], errs[p] = sessions[p].Run()
		}(p)
	}
	wg.Wait()
	out.run = secs(time.Since(start))
	out.window.to = rec.now()
	out.alloc = heapAllocated() - heap
	out.wire = statsDelta(total(), wire)
	for p, err := range errs {
		if err != nil {
			return out, fmt.Errorf("party %d run: %w", p, err)
		}
	}
	return out, nil
}

// meshSetupsPerOp is the number of set-up cycles before each timed
// operation; a mesh cycle generates k key pairs.
const meshSetupsPerOp = 2

func (in *meshInstance) setupCycle() (float64, error) {
	m, err := in.cold(nil, true)
	return m.setup, err
}

func (in *meshInstance) measure(d time.Duration, minOps int, rec *recorder, acc *samples) error {
	return acc.loop(d, minOps, func(i int) error {
		if err := acc.setups(meshSetupsPerOp, in.setupCycle); err != nil {
			return err
		}
		rec.begin()
		acc.attempted++
		var m meshRun
		at, err := acc.bracket(1, func() (err error) {
			m, err = in.cold(rec, false)
			return err
		})
		if err != nil {
			acc.fail("op %d: %v", i, err)
			return nil
		}
		acc.setup = append(acc.setup, obs{m.setup, at})
		acc.run = append(acc.run, obs{m.run, at})
		acc.resume = append(acc.resume, obs{m.run, at})
		acc.scratch = append(acc.scratch, obs{m.setup + m.run, at})
		// Every frame is counted once by its sender.
		acc.bytes += m.wire.BytesSent
		acc.frames += m.wire.MessagesSent
		acc.alloc += m.alloc
		c := counters{"transport.frames": m.wire.MessagesSent}
		wrong := -1
		for p, r := range m.results {
			c["multiparty.region_queries"] += int64(r.RegionQueries)
			c["multiparty.cached_counts"] += r.CachedCounts
			c["multiparty.cts_up"] += r.CiphertextsUplink
			c["multiparty.cts_down"] += r.CiphertextsDownlink
			if !metrics.ExactMatch(r.Labels, in.want[p]) {
				wrong = p
			}
		}
		if wrong >= 0 {
			acc.fail("op %d: party %d's labels differ from the plaintext oracle", i, wrong)
		}
		acc.counters = append(acc.counters, c)
		if rec != nil {
			acc.windows = append(acc.windows, m.window)
		}
		return nil
	})
}
