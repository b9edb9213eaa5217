package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// liveSpec sizes the long-lived horizontal session. Both parties start
// with a window of gens generations of genSize points each, then run a
// fixed script: steps×(Append(batch)+Run), steps×(WindowAppend(batch)+Run)
// and steps×(Retract(retract ids)+Run), each third followed by a fresh
// session rebuilt over the surviving points. Both sides append in every
// step — WindowAppend expires the oldest generation on both sides, so a
// serving side that never appended would run out of points and every
// later re-run would cost nothing.
type liveSpec struct {
	gens, genSize  int
	steps          int
	batch, retract int
	paillier, rsa  int
}

func (p liveSpec) String() string {
	return fmt.Sprintf("horizontal live session, window %d×%d points per side, %d×(append %d | window-append %d | retract %d) + 3 rebuilds, paillier=%d engine=masked W=1",
		p.gens, p.genSize, p.steps, p.batch, p.batch, p.retract, p.paillier)
}

// The three kinds of lifecycle step, in script order.
var stepKinds = []string{"append", "window", "retract"}

type liveInstance struct {
	spec liveSpec
	cfg  core.Config
	// fill[side] are the initial window's generations, feed[side] the
	// batches the append and window-append steps add, in script order.
	fill, feed [2][][][]float64
	text       string
}

func buildLive(spec liveSpec, seed int64) (*liveInstance, error) {
	at := layout64.place(rand.New(rand.NewSource(seed)))
	perSide := spec.gens*spec.genSize + 2*spec.steps*spec.batch
	// A few spare template points make both hands at least perSide long.
	hands := deal(layout64.template(2*perSide+2*blobs), 2)
	in := &liveInstance{
		spec: spec,
		cfg:  benchConfig(seed, layout64, spec.paillier, spec.rsa, compare.EngineMasked, 1),
	}
	var text strings.Builder
	for side, pts := range hands {
		for g := 0; g < spec.gens; g++ {
			in.fill[side] = append(in.fill[side], at.points(pts[:spec.genSize]))
			pts = pts[spec.genSize:]
		}
		for b := 0; b < 2*spec.steps; b++ {
			in.feed[side] = append(in.feed[side], at.points(pts[:spec.batch]))
			pts = pts[spec.batch:]
		}
		fmt.Fprintf(&text, "side %d fill %v feed %v\n", side, in.fill[side], in.feed[side])
	}
	in.text = text.String()
	return in, nil
}

func (in *liveInstance) inputs() string      { return in.text }
func (in *liveInstance) config() core.Config { return in.cfg }

// exhaustivePairs takes the full initial window as the operation's size.
func (in *liveInstance) exhaustivePairs() int64 {
	n := int64(in.spec.gens * in.spec.genSize)
	return 2 * n * n
}

func (in *liveInstance) plain() ([][]int64, int64, int, error) {
	return plainOf(in.cfg, concat(concat(in.fill[0]...), concat(in.fill[1]...)))
}

// liveSetupsPerStep is the number of set-up cycles before each lifecycle
// step.
const liveSetupsPerStep = 2

func (in *liveInstance) setupCycle() (float64, error) {
	c, err := cold(horizontalOver(in.cfg, in.fill[0][0], in.fill[1][0]), 0, false, nil, true)
	return c.setup, err
}

// liveStep is one scripted lifecycle step, planned before the session
// starts so that both parties and the oracle agree on it.
type liveStep struct {
	kind         string
	batch        [2][][]float64 // append, window: each side's new generation
	ids          [2][]int       // retract: each side's ids, in its live numbering
	after        [2][][]float64 // each side's surviving points, in live order
	wantA, wantB []int          // oracle labels over after
}

// plan lays the script out in the clear.
func (in *liveInstance) plan() ([]liveStep, error) {
	live := in.fill // live[side] = that side's live generations, oldest first
	for side := range live {
		live[side] = append([][][]float64(nil), live[side]...)
	}
	var steps []liveStep
	next := 0
	for _, kind := range stepKinds {
		for i := 0; i < in.spec.steps; i++ {
			st := liveStep{kind: kind}
			for side := range live {
				switch kind {
				case "append", "window":
					st.batch[side] = in.feed[side][next]
					live[side] = append(live[side], st.batch[side])
					if kind == "window" {
						live[side] = live[side][1:]
					}
				case "retract":
					// Step i withdraws the first points of the i-th newest
					// generation, so each retraction invalidates one
					// generation's cached counts and leaves the others
					// serving.
					g := len(live[side]) - 1 - i
					base := len(concat(live[side][:g]...))
					for pos := 0; pos < in.spec.retract; pos++ {
						st.ids[side] = append(st.ids[side], base+pos)
					}
					live[side][g] = live[side][g][in.spec.retract:]
				}
				st.after[side] = concat(live[side]...)
			}
			if kind != "retract" {
				next++
			}
			ea, eb, epsSq, err := encodeSides(in.cfg, st.after[0], st.after[1])
			if err != nil {
				return nil, err
			}
			st.wantA, _, st.wantB, _ = core.SimulateHorizontal(ea, eb, epsSq, in.cfg.MinPts)
			steps = append(steps, st)
		}
	}
	return steps, nil
}

// measure runs whole scripts — one long-lived session each — until the
// time is up. Every lifecycle step is one timed operation.
func (in *liveInstance) measure(d time.Duration, minOps int, rec *recorder, acc *samples) error {
	steps, err := in.plan()
	if err != nil {
		return err
	}
	scripts := (minOps + len(steps) - 1) / len(steps)
	return acc.loop(d, scripts, func(int) error { return in.script(steps, rec, acc) })
}

// script drives one session through the planned steps.
func (in *liveInstance) script(steps []liveStep, rec *recorder, acc *samples) error {
	ca, cb := transport.Pipe()
	ma, mb := rec.metered(ca, "alice", "alice-bob", false), rec.metered(cb, "bob", "alice-bob", false)
	var bobRuns []*core.Result
	count := counters{}
	err := transport.RunPair(ma, mb,
		func(transport.Conn) error {
			open := rec.now()
			sess, err := horizontalOver(in.cfg, in.fill[0][0], in.fill[1][0])(ma, core.RoleAlice)
			if err != nil {
				return err
			}
			for _, gen := range in.fill[0][1:] {
				if err := sess.Append(gen); err != nil {
					return err
				}
			}
			if _, err := sess.Run(); err != nil { // fills the caches; not timed
				return err
			}
			ready := rec.now() // for live, the filled window is the established state
			for i, st := range steps {
				if err := acc.setups(liveSetupsPerStep, in.setupCycle); err != nil {
					return err
				}
				rec.begin()
				acc.attempted++
				var res *core.Result
				var took float64
				var delta transport.Stats
				var from, to int64
				at, err := acc.bracket(1, func() (err error) {
					wire, heap := ma.Stats(), heapAllocated()
					from = rec.now()
					start := time.Now()
					switch st.kind {
					case "append":
						err = sess.Append(st.batch[0])
					case "window":
						err = sess.WindowAppend(st.batch[0])
					case "retract":
						err = sess.Retract(st.ids[0])
					}
					if err != nil {
						return fmt.Errorf("step %d %s: %w", i, st.kind, err)
					}
					if res, err = sess.Run(); err != nil {
						return fmt.Errorf("step %d run: %w", i, err)
					}
					took, to = secs(time.Since(start)), rec.now()
					delta = statsDelta(ma.Stats(), wire)
					acc.alloc += heapAllocated() - heap
					return nil
				})
				if err != nil {
					return err
				}
				acc.run = append(acc.run, obs{took, at})
				acc.resume = append(acc.resume, obs{took, at})
				acc.step(st.kind, i%in.spec.steps, obs{took, at})
				acc.bytes += delta.Total()
				acc.frames += delta.Messages()
				count[st.kind+".secure_cmps"] += res.SecureComparisons
				count[st.kind+".cached_cmps"] += res.CachedComparisons
				count[st.kind+".cts"] += res.CiphertextsSent
				count[st.kind+".frames"] += delta.Messages()
				if rec != nil {
					acc.windows = append(acc.windows, window{open: open, ready: ready, from: from, to: to, kind: st.kind})
					ready = 0 // later steps run on the session already open
				}
				if !metrics.ExactMatch(res.Labels, st.wantA) {
					acc.fail("step %d %s: initiating party's labels differ from the plaintext oracle", i, st.kind)
				}
				// After each third, what starting over would have cost.
				if i+1 < len(steps) && steps[i+1].kind == st.kind {
					continue
				}
				acc.attempted++
				var c coldRun
				at, err = acc.bracket(0, func() (err error) {
					c, err = cold(horizontalOver(in.cfg, st.after[0], st.after[1]), 0, false, nil, false)
					return err
				})
				if err != nil {
					acc.fail("rebuild after step %d: %v", i, err)
					continue
				}
				acc.setup = append(acc.setup, obs{c.setup, at})
				acc.scratch = append(acc.scratch, obs{c.setup + c.run, at})
				acc.step("rebuild", i/in.spec.steps, obs{c.setup + c.run, at})
				count["rebuild.secure_cmps"] += c.resA.SecureComparisons
				if !metrics.ExactMatch(c.resA.Labels, st.wantA) || !metrics.ExactMatch(c.resB.Labels, st.wantB) {
					acc.fail("rebuild after step %d: labels differ from the plaintext oracle", i)
				}
			}
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := horizontalOver(in.cfg, in.fill[0][0], in.fill[1][0])(mb, core.RoleBob)
			if err != nil {
				return err
			}
			// The serving side contributes the window's remaining
			// generations, then the planned batches and ids, in order.
			var batches [][][]float64
			batches = append(batches, in.fill[1][1:]...)
			var ids [][]int
			for _, st := range steps {
				if st.kind == "retract" {
					ids = append(ids, st.ids[1])
				} else {
					batches = append(batches, st.batch[1])
				}
			}
			sess.SetAppendSource(func(core.AppendRequest) ([][]float64, error) {
				if len(batches) == 0 {
					return nil, fmt.Errorf("bench: live: unplanned append")
				}
				b := batches[0]
				batches = batches[1:]
				return b, nil
			})
			sess.SetRetractSource(func(core.RetractRequest) ([]int, error) {
				if len(ids) == 0 {
					return nil, fmt.Errorf("bench: live: unplanned retraction")
				}
				r := ids[0]
				ids = ids[1:]
				return r, nil
			})
			return serveUntilClosed(sess, func(r *core.Result) { bobRuns = append(bobRuns, r) })
		})
	if err != nil {
		return fmt.Errorf("live script: %w", err)
	}
	// bobRuns[0] is the untimed first run.
	for i, st := range steps {
		if i+1 >= len(bobRuns) || !metrics.ExactMatch(bobRuns[i+1].Labels, st.wantB) {
			acc.fail("step %d %s: serving party's labels differ from the plaintext oracle", i, st.kind)
		}
	}
	acc.counters = append(acc.counters, count)
	return nil
}
