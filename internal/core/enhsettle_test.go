package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/compare"
	"repro/internal/dbscan"
	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// The enhanced protocol's driving pass as it stood before its settle step:
// a live walk that asks each region query's core bit when it reaches it
// (enhancedIsCore). Kept as the oracle TestEnhancedSettleMatchesLiveWalk
// runs the settle lifecycle through. It walks — like the per-query oracles
// of the basic protocol and the mesh — with dbscan.ClusterCore on channel
// 0: the W-wide waves it used to run at W > 1 asked the same queries in
// the same multiset (the parallel equivalence harness pinned it), so
// labels, the Ledger and the counters do not depend on W.

func enhancedSessionOpener(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, *hStream, error) {
	return newHorizontalSession(conn, cfg, role, points, "enhanced-horizontal", hEnhanced)
}

// newLiveEnhancedSession is NewEnhancedHorizontalSession on the live walk.
func newLiveEnhancedSession(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, *hStream, error) {
	t, hs, err := enhancedSessionOpener(conn, cfg, role, points)
	if err == nil {
		t.runOnce = func() (*Result, error) { return liveEnhancedRunOnce(t, hs) }
	}
	return t, hs, err
}

func liveEnhancedRunOnce(t *Session, hs *hStream) (*Result, error) {
	s := t.s
	var labels []int
	var clusters int
	var err error
	if s.role == RoleAlice {
		if labels, clusters, err = liveEnhancedDriver(s, hs); err != nil {
			return nil, err
		}
		if err := hPassResponder(s, hs, hEnhanced); err != nil {
			return nil, err
		}
	} else {
		if err := hPassResponder(s, hs, hEnhanced); err != nil {
			return nil, err
		}
		if labels, clusters, err = liveEnhancedDriver(s, hs); err != nil {
			return nil, err
		}
	}
	return t.result(labels, clusters), nil
}

func liveEnhancedDriver(s *Pair, hs *hStream) ([]int, int, error) {
	shareA, _, finalA, _, err := s.enhancedEngines()
	if err != nil {
		return nil, 0, err
	}
	localRQ := func(i int) []int { return hs.own.RegionQuery(i, s.epsSq) }
	labels, clusters := dbscan.ClusterCore(len(hs.own.Enc), localRQ, func(i int, nbrs []int) bool {
		if err != nil {
			return false
		}
		var core bool
		core, err = enhancedIsCore(s, hs, s.Conns[0], i, len(nbrs), shareA, finalA)
		return core
	})
	if err != nil {
		return nil, 0, err
	}
	return labels, clusters, s.SendDone("enh.op")
}

// TestEnhancedSettleMatchesLiveWalk is the enhanced half of the settle
// differential: the lifecycle of runSettleLifecycle (cold Run, Append, an
// append empty on one side, WindowAppend, Retract, a re-Run, Expire) on
// the settle step and on the live walk it replaced, and at every Run, on
// both sides, the labels, the Ledger, SecureComparisons, CachedComparisons,
// CiphertextsSent and the core-bit cache left behind must come out equal.
func TestEnhancedSettleMatchesLiveWalk(t *testing.T) {
	for _, engine := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		for _, pruning := range []PruneMode{PruneGrid, PruneOff} {
			for _, packing := range []PackMode{PackOff, PackFull} {
				for _, w := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/pruning=%s/packing=%s/W=%d", engine, pruning, packing, w), func(t *testing.T) {
						cfg := parallelCfg(engine, w, pruning)
						cfg.Packing = packing
						got := runSettleLifecycle(t, cfg, enhancedSessionOpener)
						want := runSettleLifecycle(t, cfg, newLiveEnhancedSession)
						var cached, secure int64
						for side, role := range []Role{RoleAlice, RoleBob} {
							if len(got[side]) != len(want[side]) || len(got[side]) != 7 {
								t.Fatalf("%v: %d stages on the settle step, %d on the live walk, want 7", role, len(got[side]), len(want[side]))
							}
							for stage := range got[side] {
								g, w := got[side][stage], want[side][stage]
								at := fmt.Sprintf("%v stage %d", role, stage)
								if !metrics.ExactMatch(g.res.Labels, w.res.Labels) || g.res.NumClusters != w.res.NumClusters {
									t.Errorf("%s: labels %v (%d clusters), live %v (%d)", at, g.res.Labels, g.res.NumClusters, w.res.Labels, w.res.NumClusters)
								}
								if g.res.Leakage != w.res.Leakage {
									t.Errorf("%s: ledger %v, live %v", at, g.res.Leakage, w.res.Leakage)
								}
								if g.res.SecureComparisons != w.res.SecureComparisons || g.res.CachedComparisons != w.res.CachedComparisons ||
									g.res.CiphertextsSent != w.res.CiphertextsSent {
									t.Errorf("%s: %d secure + %d cached comparisons, %d ciphertexts; live %d + %d, %d", at,
										g.res.SecureComparisons, g.res.CachedComparisons, g.res.CiphertextsSent,
										w.res.SecureComparisons, w.res.CachedComparisons, w.res.CiphertextsSent)
								}
								if !reflect.DeepEqual(g.enh, w.enh) {
									t.Errorf("%s: core-bit cache %v, live %v", at, g.enh, w.enh)
								}
								cached += g.res.CachedComparisons
								secure += g.res.SecureComparisons
							}
						}
						if cached == 0 || secure == 0 {
							t.Errorf("vacuous: %d cached and %d secure comparisons over the whole lifecycle", cached, secure)
						}
					})
				}
			}
		}
	}
}

// TestResponderBoundsCoreQueries: an honest enhanced driver settles each of
// its N live points at most once a pass, so a scripted one floods opCore —
// N + 1 real core queries in one pass, each on a cache-less view of the
// peer so that none is answered locally, dealt over the W channels. The
// responder refuses the (N+1)-th with ErrQueryOp before it serves any of
// it; once the refusing side drops the connection, the driver fails with
// transport.ErrClosed — both in bounded time — and no goroutine outlives
// them.
func TestResponderBoundsCoreQueries(t *testing.T) {
	for _, w := range []int{1, 4} {
		label := fmt.Sprintf("W=%d", w)
		before := runtime.NumGoroutine()
		cfg := parallelCfg(compare.EngineMasked, w, PruneOff)
		ca, cb := transport.Pipe()
		var alice, bob *Session
		var hs *hStream
		if err := both(
			func() (err error) {
				alice, hs, err = enhancedSessionOpener(ca, cfg, RoleAlice, testAlicePts)
				return err
			},
			func() (err error) {
				bob, _, err = enhancedSessionOpener(cb, cfg, RoleBob, testBobPts)
				return err
			},
		); err != nil {
			t.Fatal(err)
		}
		bobErr, aliceErr := make(chan error, 1), make(chan error, 1)
		go func() {
			_, err := bob.Run()
			cb.Close()
			bobErr <- err
		}()
		go func() {
			aliceErr <- floodCoreQueries(alice, hs)
			ca.Close()
		}()
		for _, side := range []struct {
			name string
			errc chan error
			want error
		}{{"responder", bobErr, ErrQueryOp}, {"driver", aliceErr, transport.ErrClosed}} {
			select {
			case err := <-side.errc:
				if !errors.Is(err, side.want) {
					t.Errorf("%s: %s: %v, want %v", label, side.name, err, side.want)
				}
			case <-timeoutAfterProtocol(t):
				t.Fatalf("%s: the %s hung on a flood of core queries", label, side.name)
			}
		}
		testutil.CheckNoLeak(t, before, label)
	}
}

// floodCoreQueries announces a Run and asks N + 1 core queries over the
// session's channels, query q on channel q mod W.
func floodCoreQueries(sess *Session, hs *hStream) error {
	s := sess.s
	if err := sess.sendOp(transport.NewBuilder().PutUint(sessOpRun)); err != nil {
		return err
	}
	shareA, _, finalA, _, err := s.enhancedEngines()
	if err != nil {
		return err
	}
	n, w := len(hs.own.Enc), len(s.Conns)
	return runWave(w, func(t int) error {
		for q := t; q <= n; q += w {
			view := &hStream{own: hs.own, peer: newPeerGens(hs.peer.N)}
			if _, err := enhancedIsCore(s, view, s.Conns[t], q%n, 0, shareA, finalA); err != nil {
				return err
			}
		}
		return nil
	})
}
