package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dbscan"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/transport"
)

// pairSpec sizes a workload whose timed operation is one cold Run on a
// fresh two-party session: bulk, wan and ympp.
type pairSpec struct {
	family   string // "horizontal", "vertical" or "arbitrary"
	n        int    // points over both parties
	layout   layout // grid, Eps-cell width (= Eps) and template span
	paillier int
	rsa      int
	engine   compare.EngineKind
	parallel int
	latency  time.Duration // one-way
}

func (p pairSpec) String() string {
	s := fmt.Sprintf("%s n=%d grid=%d eps=%d paillier=%d rsa=%d engine=%s W=%d",
		p.family, p.n, p.layout.grid, p.layout.cell, p.paillier, p.rsa, p.engine, p.parallel)
	if p.latency > 0 {
		s += fmt.Sprintf(" one-way=%v", p.latency)
	}
	return s
}

// benchConfig is the configuration every workload shares: packed,
// grid-pruned, batched rounds with permutations seeded from -seed.
func benchConfig(seed int64, l layout, paillierBits, rsaBits int, engine compare.EngineKind, parallel int) core.Config {
	return core.Config{
		Eps:          float64(l.cell),
		MinPts:       4,
		MaxCoord:     int64(l.grid - 1),
		PaillierBits: paillierBits,
		RSABits:      rsaBits,
		Engine:       engine,
		Batching:     core.BatchModeBatched,
		Pruning:      core.PruneGrid,
		Packing:      core.PackFull,
		Parallel:     parallel,
		CmpMaskBits:  core.DefaultCmpMaskBits,
		PruneQuantum: core.DefaultPruneQuantum,
		Seed:         seed,
	}
}

// opener establishes one party's session over conn.
type opener func(conn transport.Conn, role core.Role) (*core.Session, error)

// pairInstance is a two-party cold-run workload over generated inputs.
type pairInstance struct {
	spec  pairSpec
	cfg   core.Config
	open  opener
	rows  [][]float64 // pooled records, in the order the oracle labels them
	alice [][]float64 // horizontal: Alice's points (rows[:len(alice)])
	bob   [][]float64
	wantA []int // oracle labels for the initiating party
	wantB []int // and for the serving party
	text  string
}

func buildPair(spec pairSpec, seed int64) (*pairInstance, error) {
	at := spec.layout.place(rand.New(rand.NewSource(seed)))
	tmpl := spec.layout.template(spec.n)
	in := &pairInstance{
		spec: spec,
		cfg:  benchConfig(seed, spec.layout, spec.paillier, spec.rsa, spec.engine, spec.parallel),
	}
	var text strings.Builder
	switch spec.family {
	case "horizontal":
		hands := deal(tmpl, 2)
		in.alice, in.bob = at.points(hands[0]), at.points(hands[1])
		in.rows = concat(in.alice, in.bob)
		ea, eb, epsSq, err := encodeSides(in.cfg, in.alice, in.bob)
		if err != nil {
			return nil, err
		}
		in.wantA, _, in.wantB, _ = core.SimulateHorizontal(ea, eb, epsSq, in.cfg.MinPts)
		in.open = horizontalOver(in.cfg, in.alice, in.bob)
		fmt.Fprintf(&text, "alice %v\nbob %v\n", in.alice, in.bob)
	case "vertical", "arbitrary":
		in.rows = at.points(tmpl)
		enc, epsSq, minPts, err := plainOf(in.cfg, in.rows)
		if err != nil {
			return nil, err
		}
		res, err := dbscan.ClusterInt(enc, epsSq, minPts)
		if err != nil {
			return nil, err
		}
		in.wantA, in.wantB = res.Labels, res.Labels
		if spec.family == "vertical" {
			split, err := partition.Vertical(in.rows, 1)
			if err != nil {
				return nil, err
			}
			in.open = func(conn transport.Conn, role core.Role) (*core.Session, error) {
				if role == core.RoleAlice {
					return core.NewVerticalSession(conn, in.cfg, role, split.Alice)
				}
				return core.NewVerticalSession(conn, in.cfg, role, split.Bob)
			}
			fmt.Fprintf(&text, "rows %v\n", in.rows)
			break
		}
		// Cell ownership is part of the template, not of the seed.
		split, err := partition.ArbitraryRandom(in.rows, 0.5, templateSeed)
		if err != nil {
			return nil, err
		}
		in.open = func(conn transport.Conn, role core.Role) (*core.Session, error) {
			if role == core.RoleAlice {
				return core.NewArbitrarySession(conn, in.cfg, role, split.Alice, split.Owners)
			}
			return core.NewArbitrarySession(conn, in.cfg, role, split.Bob, split.Owners)
		}
		fmt.Fprintf(&text, "rows %v\nowners %v\n", in.rows, split.Owners)
	default:
		return nil, fmt.Errorf("bench: unknown family %q", spec.family)
	}
	in.text = text.String()
	return in, nil
}

func (in *pairInstance) inputs() string      { return in.text }
func (in *pairInstance) config() core.Config { return in.cfg }

func (in *pairInstance) exhaustivePairs() int64 {
	if in.spec.family == "horizontal" {
		return 2 * int64(len(in.alice)) * int64(len(in.bob))
	}
	n := int64(len(in.rows))
	return n * (n - 1) / 2
}

func (in *pairInstance) plain() ([][]int64, int64, int, error) {
	return plainOf(in.cfg, in.rows)
}

// plainOf encodes pooled rows for plaintext DBSCAN, with the protocol's
// threshold.
func plainOf(cfg core.Config, rows [][]float64) (points [][]int64, epsSq int64, minPts int, err error) {
	points, _, epsSq, err = encodeSides(cfg, rows, nil)
	return points, epsSq, cfg.MinPts, err
}

// horizontalOver returns an opener for a horizontal session over fixed
// points.
func horizontalOver(cfg core.Config, alice, bob [][]float64) opener {
	return func(conn transport.Conn, role core.Role) (*core.Session, error) {
		if role == core.RoleAlice {
			return core.NewHorizontalSession(conn, cfg, role, alice)
		}
		return core.NewHorizontalSession(conn, cfg, role, bob)
	}
}

// coldRun is what one fresh session observed.
type coldRun struct {
	setup, run float64
	resA, resB *core.Result
	wire       transport.Stats // initiating party's Meter over the Run
	alloc      uint64
	window     window
}

// cold opens a fresh connection pair, establishes a session on both
// sides and — unless setupOnly — times one Run on the initiating party.
func cold(open opener, latency time.Duration, muxed bool, rec *recorder, setupOnly bool) (coldRun, error) {
	ca, cb := link(latency)
	ma, mb := rec.metered(ca, "alice", "alice-bob", muxed), rec.metered(cb, "bob", "alice-bob", muxed)
	var out coldRun
	err := transport.RunPair(ma, mb,
		func(transport.Conn) error {
			out.window.open = rec.now()
			start := time.Now()
			sess, err := open(ma, core.RoleAlice)
			if err != nil {
				return err
			}
			out.setup = secs(time.Since(start))
			out.window.ready = rec.now()
			if setupOnly {
				return sess.Close()
			}
			wire, heap := ma.Stats(), heapAllocated()
			out.window.from = rec.now()
			start = time.Now()
			out.resA, err = sess.Run()
			out.run = secs(time.Since(start))
			out.window.to = rec.now()
			if err != nil {
				return err
			}
			out.alloc = heapAllocated() - heap
			out.wire = statsDelta(ma.Stats(), wire)
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := open(mb, core.RoleBob)
			if err != nil {
				return err
			}
			return serveUntilClosed(sess, func(r *core.Result) { out.resB = r })
		})
	return out, err
}

func (in *pairInstance) setupCycle() (float64, error) {
	c, err := cold(in.open, in.spec.latency, false, nil, true)
	return c.setup, err
}

// setupsPerOp is the number of set-up cycles the cold workloads run
// before each timed operation, which brings one more of its own.
const setupsPerOp = 3

func (in *pairInstance) measure(d time.Duration, minOps int, rec *recorder, acc *samples) error {
	return acc.loop(d, minOps, func(i int) error {
		if err := acc.setups(setupsPerOp, in.setupCycle); err != nil {
			return err
		}
		rec.begin()
		acc.attempted++
		var c coldRun
		at, err := acc.bracket(1, func() (err error) {
			c, err = cold(in.open, in.spec.latency, in.spec.parallel > 1, rec, false)
			return err
		})
		if err != nil {
			acc.fail("op %d: %v", i, err)
			return nil
		}
		acc.addCold(c, at, rec)
		if !metrics.ExactMatch(c.resA.Labels, in.wantA) || !metrics.ExactMatch(c.resB.Labels, in.wantB) {
			acc.fail("op %d: labels differ from the plaintext oracle", i)
		}
		return nil
	})
}

// addCold files one cold run observed in bracket at: the timed operation
// is the Run, and the same session's set-up plus Run is what a rebuild
// costs.
func (a *samples) addCold(c coldRun, at int, rec *recorder) {
	a.setup = append(a.setup, obs{c.setup, at})
	a.run = append(a.run, obs{c.run, at})
	a.resume = append(a.resume, obs{c.run, at})
	a.scratch = append(a.scratch, obs{c.setup + c.run, at})
	a.bytes += c.wire.Total()
	a.frames += c.wire.Messages()
	a.alloc += c.alloc
	a.counters = append(a.counters, resultCounters(c.resA, c.resB, c.wire))
	if rec != nil {
		a.windows = append(a.windows, c.window)
	}
}
