package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/compare"
	"repro/internal/dbscan"
	"repro/internal/metrics"
	"repro/internal/mpc"
	"repro/internal/spatial"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/yao"
)

// The enhanced protocol's driving pass as it stood before its settle step:
// a live walk that asks each region query's core bit when it reaches it,
// one exchange a query (enhancedIsCore), answered by the per-query
// responder of handshake ≤ v12 (serveEnhancedCore). Kept as the oracle
// TestEnhancedSettleMatchesLiveWalk runs the settle lifecycle through. It
// walks — like the per-query oracles of the basic protocol and the mesh —
// with dbscan.ClusterCore on channel 0: the W-wide waves it used to run at
// W > 1 asked the same queries in the same multiset (the parallel
// equivalence harness pinned it), so labels, the Ledger and the counters do
// not depend on W.
//
// A responder draws one permutation a query, in the order the queries
// reach it, and quickselect's comparison count — unlike the scan's —
// depends on the permutation. So under quickselect the oracle asks its
// queries in point order before it walks, one exchange each: the order the
// settle step's rows take at W = 1.

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
		if err := liveEnhancedResponder(s, hs); err != nil {
			return nil, err
		}
	} else {
		if err := liveEnhancedResponder(s, hs); err != nil {
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
	n := len(hs.own.Enc)
	rqs := make([][]int, n)
	for i := range rqs {
		rqs[i] = hs.own.RegionQuery(i, s.epsSq)
	}
	ask := func(i int) (core bool) {
		if err == nil {
			core, err = enhancedIsCore(s, hs, s.Conns[0], i, len(rqs[i]), shareA, finalA)
		}
		return core
	}
	isCore := func(i int, _ []int) bool { return ask(i) }
	if s.cfg.Selection == SelectionQuick {
		cores, queried := make([]bool, n), make([]bool, n)
		for i := range cores {
			cores[i] = ask(i)
		}
		// The walk then counts a re-query as the settle step's walk does.
		isCore = func(i int, _ []int) bool {
			if _, ok := enhCached(hs, i); ok && queried[i] {
				s.cmpCached.Add(1)
			}
			queried[i] = true
			return cores[i]
		}
	}
	labels, clusters := dbscan.ClusterCore(n, func(i int) []int { return rqs[i] }, isCore)
	if err != nil {
		return nil, 0, err
	}
	return labels, clusters, s.SendDone("enh.op")
}

func liveEnhancedResponder(s *Pair, hs *hStream) error {
	_, shareB, _, finalB, err := s.enhancedEngines()
	if err != nil {
		return err
	}
	return s.Serve("enh.op", map[uint64]OpServer{
		opCore: func(conn transport.Conn, rng PermSource, r *transport.Reader) error {
			return serveEnhancedCore(s, conn, rng, shareB, finalB, hs.own, r)
		},
	})
}

// enhancedIsCore decides whether the driver's point is a core point given
// it already has ownCount own-side neighbours. k = MinPts − ownCount peer
// neighbours are still needed; the trivial cases never touch the network.
// Under grid pruning the share and selection phases run over the padded
// occupancy of the query point's candidate cells instead of every peer
// point, with dummy entries pinned to the maximal distance — a query
// whose candidate cells cannot hold k points is decided locally. The
// cross-run cache (enhCached) short-circuits the whole exchange when it
// can. The share phase is one row of the settle step's exchange, which is
// the wire form this query's own exchange always had.
func enhancedIsCore(s *Pair, hs *hStream, conn transport.Conn, point, ownCount int, shareA compare.Alice, finalA compare.Alice) (bool, error) {
	own, nPeer := hs.own.Enc, hs.peer.N
	k := s.cfg.MinPts - ownCount
	if k <= 0 {
		return true, nil
	}
	if core, ok := enhCached(hs, point); ok {
		s.cmpCached.Add(1)
		return core, nil
	}
	var cells [][]int64
	nCand := nPeer
	usePrune := false
	if s.pruneOn {
		c, total := s.candidateCells(hs.peer, own[point], 0, len(hs.peer.dirs))
		// Prune only when the padded candidate set is actually smaller;
		// otherwise fall back to the exhaustive query (flagged on the op
		// frame) so pruning never enlarges the selection.
		if total < nPeer {
			if k > total {
				return false, nil
			}
			usePrune = true
			cells, nCand = c, total
		}
	}
	if !usePrune && k > nPeer {
		return false, nil
	}
	setTag(conn, "enh.op")
	msg := transport.NewBuilder().PutUint(opCore).PutUint(uint64(k))
	if s.pruneOn {
		msg.PutBool(usePrune)
		if usePrune {
			spatial.EncodeCells(msg, cells)
		}
	}
	if err := transport.SendMsg(conn, msg); err != nil {
		return false, err
	}

	// Share phase: u_i = Dist²(A, B_i) + v_i.
	setTag(conn, "enh.share")
	a := extendedQueryVector(own[point])
	pk, err := s.dotPacker(&s.paiKey.PublicKey)
	if err != nil {
		return false, err
	}
	usBig, err := mpc.ReceiverDotRows(conn, s.paiKey, [][]int64{a}, []int{nCand}, pk, s.random, s.pool)
	if err != nil {
		return false, fmt.Errorf("core: enhanced share phase: %w", err)
	}
	s.ctsUp.Add(int64(len(a)))
	us := make([]int64, len(usBig))
	maxShare := s.bound + s.shareV
	for i, u := range usBig {
		if !u.IsInt64() || u.Int64() < 0 || u.Int64() >= maxShare {
			return false, fmt.Errorf("core: share u[%d]=%v outside [0,%d)", i, u, maxShare)
		}
		us[i] = u.Int64()
	}

	// Selection phase: index of the k-th smallest shared distance.
	setTag(conn, "enh.select")
	shift := s.bound + s.shareV
	var kth, comparisons int
	if s.batched() {
		leb := func(pairs [][2]int) ([]bool, error) {
			vals := make([]int64, len(pairs))
			for t, pr := range pairs {
				// Dist_x ≤ Dist_y ⟺ u_x − u_y ≤ v_x − v_y.
				vals[t] = us[pr[0]] - us[pr[1]] + shift
			}
			if s.derivedCompare() {
				return shareA.(compare.DerivedAlice).BatchLessEqDerived(conn, vals)
			}
			return shareA.BatchLessEq(conn, vals)
		}
		kth, comparisons, err = kthSmallestBatch(nCand, k, s.cfg.Selection, leb)
	} else {
		le := func(x, y int) (bool, error) {
			// Dist_x ≤ Dist_y ⟺ u_x − u_y ≤ v_x − v_y.
			return shareA.LessEq(conn, us[x]-us[y]+shift)
		}
		kth, comparisons, err = kthSmallest(nCand, k, s.cfg.Selection, le)
	}
	if err != nil {
		return false, fmt.Errorf("core: enhanced selection: %w", err)
	}
	s.led(func(l *Ledger) { l.OrderBits += comparisons })

	// Final phase: Dist_κ ≤ Eps² ⟺ u_κ ≤ Eps² + v_κ.
	setTag(conn, "enh.final")
	var core bool
	if s.derivedCompare() {
		bits, derr := finalA.(compare.DerivedAlice).BatchLessEqDerived(conn, []int64{us[kth]})
		if derr == nil && len(bits) != 1 {
			derr = fmt.Errorf("core: derived final comparison returned %d bits", len(bits))
		}
		if derr != nil {
			return false, fmt.Errorf("core: enhanced final comparison: %w", derr)
		}
		core = bits[0]
	} else {
		core, err = finalA.LessEq(conn, us[kth])
		if err != nil {
			return false, fmt.Errorf("core: enhanced final comparison: %w", err)
		}
	}
	s.led(func(l *Ledger) { l.CoreBits++ })
	hs.peer.putEnh(point, enhEntry{core: core, ownN: len(own), peerN: nPeer})
	return core, nil
}

// serveEnhancedCore parses one announced core query (k plus the pruning
// fields) and answers it.
func serveEnhancedCore(s *Pair, conn transport.Conn, rng PermSource, shareB, finalB compare.Bob, own *OwnGens, r *transport.Reader) error {
	k := int(r.Uint())
	if r.Err() != nil {
		return r.Err()
	}
	pts, nDummy, err := s.ReadPrunedOp(r, own, 0, own.Gens())
	if err != nil {
		return err
	}
	return enhancedServeCore(s, conn, rng, pts, nDummy, k, shareB, finalB)
}

// enhancedServeCore answers one core query against the given candidate
// points plus nDummy padding entries.
func enhancedServeCore(s *Pair, conn transport.Conn, rng PermSource, pts [][]int64, nDummy, k int, shareB compare.Bob, finalB compare.Bob) error {
	n := len(pts) + nDummy
	if k < 1 || k > n {
		return fmt.Errorf("core: driver requested k=%d of %d points", k, n)
	}
	perm := rng.Perm(n)

	setTag(conn, "enh.share")
	vs := make([]*big.Int, n)
	bs := make([][]int64, n)
	vals := make([]int64, n)
	for i, pi := range perm {
		v, err := mpc.RandomMask(s.random, big.NewInt(s.shareV))
		if err != nil {
			return err
		}
		vs[i] = v
		vals[i] = v.Int64()
		if pi < len(pts) {
			bs[i] = extendedDataVector(pts[pi])
		} else {
			bs[i] = dummyDataVector(s.dim, s.bound)
		}
	}
	pk, err := s.dotPacker(s.peerPai)
	if err != nil {
		return err
	}
	ds, err := mpc.SenderDotRows(conn, s.peerPai, bs, []int{n}, vs, pk, s.derivedCompare(), s.random, s.pool)
	if err != nil {
		return fmt.Errorf("core: enhanced share phase: %w", err)
	}
	s.ctsDown.Add(int64(pk.Groups(n)))

	setTag(conn, "enh.select")
	shift := s.bound + s.shareV
	var encShift *big.Int
	if s.derivedCompare() {
		if encShift, err = s.peerPai.Unblinded(big.NewInt(shift)); err != nil {
			return err
		}
	}
	var kth, comparisons int
	if s.batched() {
		leb := func(pairs [][2]int) ([]bool, error) {
			ops := make([]int64, len(pairs))
			for t, pr := range pairs {
				ops[t] = vals[pr[0]] - vals[pr[1]] + shift
			}
			if s.derivedCompare() {
				base := func(t int) (*big.Int, error) {
					return derivedShareDiff(s.peerPai, ds, encShift, pairs[t])
				}
				return shareB.(compare.DerivedBob).BatchLessEqDerived(conn, ops, base)
			}
			return shareB.BatchLessEq(conn, ops)
		}
		kth, comparisons, err = kthSmallestBatch(n, k, s.cfg.Selection, leb)
	} else {
		le := func(x, y int) (bool, error) {
			return shareB.LessEq(conn, vals[x]-vals[y]+shift)
		}
		kth, comparisons, err = kthSmallest(n, k, s.cfg.Selection, le)
	}
	if err != nil {
		return fmt.Errorf("core: enhanced selection: %w", err)
	}
	s.led(func(l *Ledger) { l.OrderBits += comparisons })

	setTag(conn, "enh.final")
	if s.derivedCompare() {
		base := func(int) (*big.Int, error) { return ds[kth], nil }
		if _, err := finalB.(compare.DerivedBob).BatchLessEqDerived(conn, []int64{s.epsSq + vals[kth]}, base); err != nil {
			return fmt.Errorf("core: enhanced final comparison: %w", err)
		}
	} else if _, err := finalB.LessEq(conn, s.epsSq+vals[kth]); err != nil {
		return fmt.Errorf("core: enhanced final comparison: %w", err)
	}
	s.led(func(l *Ledger) { l.CoreBits++ })
	return nil
}

// TestEnhancedSettleMatchesLiveWalk is the enhanced half of the settle
// differential: the lifecycle of runSettleLifecycle (cold Run, Append, an
// append empty on one side, WindowAppend, Retract, a re-Run, Expire) on
// the settle step and on the live walk it replaced, over engine × pruning
// × packing × W and, at W = 1, quickselect. At every Run, on both sides,
// the labels, the Ledger, SecureComparisons, CachedComparisons and the
// core-bit cache left behind must come out equal, and CiphertextsSent
// no higher — the settle step packs replies across queries, and under full
// packing it must send strictly fewer somewhere.
func TestEnhancedSettleMatchesLiveWalk(t *testing.T) {
	type leg struct {
		engine    compare.EngineKind
		pruning   PruneMode
		packing   PackMode
		w         int
		selection SelectionKind
	}
	var legs []leg
	for _, engine := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		for _, pruning := range []PruneMode{PruneGrid, PruneOff} {
			for _, packing := range []PackMode{PackOff, PackSlots, PackFull} {
				for _, w := range []int{1, 4} {
					legs = append(legs, leg{engine, pruning, packing, w, SelectionScan})
				}
			}
		}
	}
	legs = append(legs, leg{compare.EngineMasked, PruneGrid, PackFull, 1, SelectionQuick},
		leg{compare.EngineMasked, PruneOff, PackOff, 1, SelectionQuick})
	fewer := false
	for _, l := range legs {
		name := fmt.Sprintf("%s/pruning=%s/packing=%s/W=%d", l.engine, l.pruning, l.packing, l.w)
		if l.selection != SelectionScan {
			name += "/" + string(l.selection)
		}
		t.Run(name, func(t *testing.T) {
			cfg := parallelCfg(l.engine, l.w, l.pruning)
			cfg.Packing, cfg.Selection = l.packing, l.selection
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
					if g.res.SecureComparisons != w.res.SecureComparisons || g.res.CachedComparisons != w.res.CachedComparisons {
						t.Errorf("%s: %d secure + %d cached comparisons; live %d + %d", at,
							g.res.SecureComparisons, g.res.CachedComparisons, w.res.SecureComparisons, w.res.CachedComparisons)
					}
					if g.res.CiphertextsSent > w.res.CiphertextsSent {
						t.Errorf("%s: %d ciphertexts sent, live %d", at, g.res.CiphertextsSent, w.res.CiphertextsSent)
					}
					if l.packing == PackFull && g.res.CiphertextsSent < w.res.CiphertextsSent {
						fewer = true
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
	if !fewer && !t.Failed() {
		t.Error("under full packing no Run sent fewer ciphertexts than the live walk")
	}
}

// coreFrame builds an enhanced chunk's op frame from (point, k) entries;
// with pruning off an entry carries nothing else.
func coreFrame(declared uint64, entries ...[2]uint64) *transport.Builder {
	msg := transport.NewBuilder().PutUint(opCore).PutUint(declared)
	for _, e := range entries {
		msg.PutUint(e[0]).PutUint(e[1])
	}
	return msg
}

// coreFixture is an established enhanced session pair — Alice driving 3
// live points, Bob serving 128 under pruning off, so one query is 128
// candidates and the masked engine's chunk bound of 256 is two — with
// Bob's one Run already waiting for the run op.
type coreFixture struct {
	alice *Session
	hs    *hStream // Alice's
	tap   *sentTap // Bob's channel 0 at W = 1
	done  chan error
}

func openCoreFixture(t *testing.T, w int) *coreFixture {
	t.Helper()
	cfg := parallelCfg(compare.EngineMasked, w, PruneOff)
	cfg.Packing = PackFull
	bobPts := make([][]float64, 128)
	for i := range bobPts {
		bobPts[i] = []float64{float64(i % 8), float64(i / 8 % 8)}
	}
	f := &coreFixture{done: make(chan error, 1)}
	ca, cb := transport.Pipe()
	var bob *Session
	if err := both(
		func() (err error) {
			f.alice, f.hs, err = enhancedSessionOpener(ca, cfg, RoleAlice, [][]float64{{0, 0}, {3, 3}, {7, 7}})
			return err
		},
		func() (err error) {
			bob, _, err = enhancedSessionOpener(cb, cfg, RoleBob, bobPts)
			return err
		},
	); err != nil {
		t.Fatal(err)
	}
	if w == 1 {
		f.tap = &sentTap{Conn: bob.s.Conns[0]}
		bob.s.Conns[0] = f.tap
	}
	go func() {
		_, err := bob.Run()
		cb.Close()
		f.done <- err
	}()
	if err := f.alice.sendOp(transport.NewBuilder().PutUint(sessOpRun)); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestResponderRefusesHostileCoreOps: a scripted hostile driver per rule of
// readCoreOp. Alice announces a Run and sends the frame; Bob's Run fails
// with ErrQueryOp, on the rule the row is about, before he has put a
// single frame of the pass on the wire — and the honest frame at each
// rule's boundary is served: Bob answers its share exchange. The last rule,
// no point asked about twice in one pass, is a flood at W ∈ {1, 4}: N + 1
// single-query chunks, query q on channel q mod W, each a real exchange,
// the last naming point 0 again. Bob refuses it; once he drops the
// connection the driver fails with transport.ErrClosed — both in bounded
// time — and no goroutine outlives them.
func TestResponderRefusesHostileCoreOps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame *transport.Builder
		rule  string // "" for an honest frame
	}{
		{"one query", coreFrame(1, [2]uint64{0, 1}), ""},
		{"k at the candidate count", coreFrame(1, [2]uint64{2, 128}), ""},
		{"two queries summing to the bound", coreFrame(2, [2]uint64{0, 1}, [2]uint64{2, 5}), ""},
		{"no query", coreFrame(0), "chunk of 0 core queries"},
		{"more queries than points", coreFrame(4, [2]uint64{0, 1}, [2]uint64{1, 1}, [2]uint64{2, 1}, [2]uint64{2, 2}), "chunk of 4 core queries for 3 points"},
		{"count the frame cannot hold", coreFrame(3, [2]uint64{0, 1}), "chunk of 3 core queries"},
		{"three queries over the bound", coreFrame(3, [2]uint64{0, 1}, [2]uint64{1, 1}, [2]uint64{2, 1}), "384 candidates over 3 core queries, bound 256"},
		{"points descending", coreFrame(2, [2]uint64{1, 1}, [2]uint64{0, 1}), "not ascending"},
		{"point repeated", coreFrame(2, [2]uint64{0, 1}, [2]uint64{0, 1}), "not ascending"},
		{"point past the driver's live count", coreFrame(1, [2]uint64{3, 1}), "names point 3 of 3"},
		{"k of zero", coreFrame(1, [2]uint64{0, 0}), "the 0-th of 128"},
		{"k past the candidates", coreFrame(1, [2]uint64{0, 129}), "the 129-th of 128"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := openCoreFixture(t, 1)
			s, conn := f.alice.s, f.alice.s.Conns[0]
			before := len(f.tap.sent)
			if err := transport.SendMsg(conn, tc.frame); err != nil {
				t.Fatal(err)
			}
			if tc.rule == "" {
				// Served: Bob folds the share replies of the frame's queries.
				r := transport.NewReader(tc.frame.Bytes())
				r.Uint()
				as, counts := make([][]int64, r.Uint()), []int{}
				for i := range as {
					as[i], counts = extendedQueryVector(f.hs.own.Enc[r.Uint()]), append(counts, 128)
					r.Uint()
				}
				pk, err := s.dotPacker(&s.paiKey.PublicKey)
				if err == nil {
					_, err = mpc.ReceiverDotRows(conn, s.paiKey, as, counts, pk, s.random, s.pool)
				}
				if err != nil {
					t.Fatalf("an honest frame was not served: %v", err)
				}
				conn.Close()
				<-f.done
				return
			}
			select {
			case err := <-f.done:
				if !errors.Is(err, ErrQueryOp) || !strings.Contains(err.Error(), tc.rule) {
					t.Errorf("Bob's Run = %v, want ErrQueryOp on %q", err, tc.rule)
				}
			case <-timeoutAfterProtocol(t):
				t.Fatal("Bob's Run hung on a hostile frame")
			}
			if n := len(f.tap.sent) - before; n != 0 {
				t.Errorf("Bob sent %d frames in answer to a refused op", n)
			}
			conn.Close()
		})
	}

	for _, w := range []int{1, 4} {
		label := fmt.Sprintf("point asked twice in a pass W=%d", w)
		before := runtime.NumGoroutine()
		f := openCoreFixture(t, w)
		s := f.alice.s
		shareA, _, finalA, _, err := s.enhancedEngines()
		if err != nil {
			t.Fatal(err)
		}
		n := len(f.hs.own.Enc)
		aliceErr := make(chan error, 1)
		go func() {
			aliceErr <- runWave(w, func(t int) error {
				for q := t; q <= n; q += w {
					query := coreQuery{SubQuery{Point: q % n, NCand: f.hs.peer.N}, 1}
					if _, err := s.coreChunk(s.Conns[t], shareA, finalA, f.hs.own.Enc, []coreQuery{query}); err != nil {
						return err
					}
				}
				return nil
			})
			s.Conns[0].Close()
		}()
		for _, side := range []struct {
			name string
			errc chan error
			want error
		}{{"responder", f.done, ErrQueryOp}, {"driver", aliceErr, transport.ErrClosed}} {
			select {
			case err := <-side.errc:
				if !errors.Is(err, side.want) {
					t.Errorf("%s: %s: %v, want %v", label, side.name, err, side.want)
				}
			case <-timeoutAfterProtocol(t):
				t.Fatalf("%s: the %s hung", label, side.name)
			}
		}
		f.alice.s.Conns[0].Close()
		testutil.CheckNoLeak(t, before, label)
	}
}

// FuzzCoreOp: the enhanced chunk decoder is fed whatever a driver sends.
// It must not panic, and what it accepts is what an honest schedule could
// send: one to three queries, no more than the frame has bytes for, points
// ascending below three, k within each query's candidates — of which there
// are no more than the responder's points and padding — at most the bound
// in all unless the chunk is one query, and exactly its points marked in
// the pass's bitmap.
func FuzzCoreOp(f *testing.F) {
	s, own, peer := opFuzzFixture(f)
	const bound = 12
	// Seeds: honest chunks over the fixture's own directories, pruned and
	// exhaustive, and a few broken ones.
	for _, pts := range [][][]int64{{{2, 2}}, {{6, 6}, {5, 4}}, {{1, 1}, {2, 2}, {7, 7}}} {
		msg := transport.NewBuilder().PutUint(uint64(len(pts)))
		for i, p := range pts {
			cells, total := s.candidateCells(peer, p, 0, len(peer.dirs))
			q := coreQuery{SubQuery{Point: i, NCand: peer.N}, 1}
			if total < peer.N {
				q.pruned, q.cells = true, cells
			}
			if total == 0 {
				f.Fatalf("fixture: %v has no candidates, an honest driver asks nothing", p)
			}
			msg.PutUint(uint64(i)).PutUint(1)
			s.Announce(msg, q.SubQuery)
		}
		if _, err := s.readCoreOp(transport.NewReader(msg.Bytes()), own, bound, make([]atomic.Bool, 3)); err != nil {
			f.Fatalf("honest seed for %v refused: %v", pts, err)
		}
		f.Add(msg.Bytes())
	}
	f.Add(coreFrame(2, [2]uint64{0, 1}, [2]uint64{0, 1}).Bytes()[1:])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		seen := make([]atomic.Bool, 3)
		qs, err := s.readCoreOp(transport.NewReader(data), own, bound, seen)
		if err != nil {
			if qs != nil {
				t.Fatalf("an error and %d queries", len(qs))
			}
			return
		}
		if len(qs) == 0 || len(qs) > 3 || 2*len(qs) > len(data) {
			t.Fatalf("%d queries out of %d bytes", len(qs), len(data))
		}
		total, marked := 0, 0
		for u, q := range qs {
			nCand := len(q.pts) + q.nDummy
			if q.point < 0 || q.point >= 3 || (u > 0 && q.point <= qs[u-1].point) || q.k < 1 || q.k > nCand ||
				len(q.pts) > len(own.Enc) || q.nDummy < 0 || q.nDummy > 64 || !seen[q.point].Load() {
				t.Fatalf("query %d %+v outside the session", u, q)
			}
			total += nCand
		}
		for i := range seen {
			if seen[i].Load() {
				marked++
			}
		}
		if (total > bound && len(qs) > 1) || marked != len(qs) {
			t.Fatalf("%d queries of %d candidates in all, %d points marked", len(qs), total, marked)
		}
	})
}

// scanRounds is how many selection rounds the scan's step machine takes
// for the k-th of n, whatever the answers: one knockout tournament per
// extraction, ⌈log₂ m⌉ rounds over the m items left.
func scanRounds(n, k int) (rounds int) {
	for m := n; m > n-k; m-- {
		for field := m; field > 1; field = (field + 1) / 2 {
			rounds++
		}
	}
	return rounds
}

// TestEnhancedSettleRunFramePin pins what the enhanced settle step puts on
// the wire. On wideEnhancedPoints every point asks for k = 1 of all its
// peer's points, so a cold Run is the run op plus, per pass, ⌈queries ÷
// queries-a-chunk⌉ chunks of op, two share frames, three frames a
// selection round — ⌈log₂ n⌉ rounds — and three final frames, then the W
// done frames: five chunks of 32 candidates a query and five of 36. The Run
// after Append(1) a side re-asks only Alice's four non-core points (their
// cached false bits held for the old dataset sizes; every true bit is
// still good and the new points are core on their own): one chunk, and
// Bob's pass nothing but its done frames. Comparisons: n − 1 a query's
// selection and one its final, on both passes.
func TestEnhancedSettleRunFramePin(t *testing.T) {
	ptsA, ptsB := wideEnhancedPoints()
	nA, nB := len(ptsA), len(ptsB)
	pass := func(queries, nPeer int) (frames, cmps int) {
		chunks := packRows(slices.Repeat([]int{nPeer}, queries), lockstepChunk)
		return chunks * (1 + 2 + 3*scanRounds(nPeer, 1) + 3), queries * nPeer
	}
	aliceCold, aliceCmps := pass(nA, nB)
	bobCold, bobCmps := pass(nB, nA)
	aliceWarm, aliceWarmCmps := pass(4, nB+1)
	if aliceCold != 5*21 || bobCold != 5*24 {
		t.Fatalf("fixture: passes of %d and %d frames, want five chunks each", aliceCold, bobCold)
	}
	for _, w := range []int{1, 4} {
		cfg := enhancedWide(parallelCfg(compare.EngineMasked, w, PruneOff))
		ca, cb := transport.Pipe()
		ma := transport.NewMeter(ca)
		var cold, warm, coldCmps, warmCmps int64
		err := transport.RunPair(ma, cb,
			func(transport.Conn) error {
				sess, err := NewEnhancedHorizontalSession(ma, cfg, RoleAlice, ptsA)
				if err != nil {
					return err
				}
				before := ma.Stats().Messages()
				res, err := sess.Run()
				if err != nil {
					return err
				}
				cold, coldCmps = ma.Stats().Messages()-before, res.SecureComparisons
				if err := sess.Append([][]float64{{0, 1}}); err != nil {
					return err
				}
				before = ma.Stats().Messages()
				if res, err = sess.Run(); err != nil {
					return err
				}
				warm, warmCmps = ma.Stats().Messages()-before, res.SecureComparisons
				return sess.Close()
			},
			func(c transport.Conn) error {
				sess, err := NewEnhancedHorizontalSession(c, cfg, RoleBob, ptsB)
				if err != nil {
					return err
				}
				sess.SetAppendSource(func(AppendRequest) ([][]float64, error) { return [][]float64{{1, 2}}, nil })
				for run := 0; run < 2; run++ {
					if _, err := sess.Run(); err != nil {
						return err
					}
				}
				if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
					return fmt.Errorf("serving side after the close op: %v", err)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if want := int64(1 + aliceCold + bobCold + 2*w); cold != want || coldCmps != int64(aliceCmps+bobCmps) {
			t.Errorf("W=%d: cold Run: %d frames, %d comparisons; want 1 + %d + %d + 2×%d = %d, %d", w, cold, coldCmps, aliceCold, bobCold, w, want, aliceCmps+bobCmps)
		}
		if want := int64(1 + aliceWarm + 2*w); warm != want || warmCmps != int64(aliceWarmCmps) {
			t.Errorf("W=%d: Run after Append(1): %d frames, %d comparisons; want 1 + %d + 2×%d = %d, %d", w, warm, warmCmps, aliceWarm, w, want, aliceWarmCmps)
		}
	}
}

// TestEnhancedYMPPChunksStayUnderFrameLimit: under YMPP a comparison's
// round 2 carries its whole domain, so the chunk rule binds the enhanced
// settle step too. A query weighs its candidates, and no round asks a
// query more comparisons than it has candidates — a scan round at most
// half of them, a quickselect round one fewer, the final batch one — so a
// chunk's every selection round and its final batch stay within its
// weight, and chunkBound(FrameBytes) keeps each frame under a quarter of
// the limit. Two steps, like TestYMPPChunksStayUnderFrameLimit. A real
// enhanced YMPP session shows both ends size their chunks by the same
// bytes, and no frame its driver sends is over what FrameBytes allows the
// chunk. Then the real schedule and step machines run, for an engine over
// a domain of 2^12, rounds of exactly FrameBytes a comparison: every
// chunk's largest round passes a Pipe and is at most a quarter of the
// limit, while the first round of the one chunk the cap alone would have
// made is refused with the typed error.
func TestEnhancedYMPPChunksStayUnderFrameLimit(t *testing.T) {
	cfg := parallelCfg(compare.EngineYMPP, 1, PruneOff)
	ca, cb := transport.Pipe()
	sizes := &sentTap{Conn: ca}
	var cmpBytes, peerBytes, weight int
	err := transport.RunPair(sizes, cb,
		func(transport.Conn) error {
			sess, hs, err := enhancedSessionOpener(sizes, cfg, RoleAlice, testAlicePts)
			if err != nil {
				return err
			}
			shareA, _, _, _, err := sess.s.enhancedEngines()
			if err != nil {
				return err
			}
			cmpBytes, weight = shareA.FrameBytes(), len(hs.own.Enc)*hs.peer.N
			sizes.sent = nil
			if _, err := sess.Run(); err != nil {
				return err
			}
			return sess.Close()
		},
		func(c transport.Conn) error {
			sess, _, err := enhancedSessionOpener(c, cfg, RoleBob, testBobPts)
			if err != nil {
				return err
			}
			_, shareB, _, _, err := sess.s.enhancedEngines()
			if err != nil {
				return err
			}
			peerBytes = shareB.FrameBytes()
			if _, err = sess.Run(); err != nil {
				return err
			}
			if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
				return fmt.Errorf("serving side after the close op: %v", err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if cmpBytes != peerBytes {
		t.Fatalf("the two ends of one edge size their chunks by %d and %d bytes", cmpBytes, peerBytes)
	}
	if chunkBound(cmpBytes) < weight {
		t.Fatalf("fixture: %d bytes a comparison bound a chunk at %d, under the %d candidates of Alice's pass", cmpBytes, chunkBound(cmpBytes), weight)
	}
	largest := 0
	for _, frame := range sizes.sent {
		largest = max(largest, len(frame))
	}
	if largest > weight*cmpBytes || 2*largest < cmpBytes {
		t.Errorf("the driver's largest frame is %d bytes, FrameBytes %d allows its one chunk of %d candidates %d", largest, cmpBytes, weight, weight*cmpBytes)
	}

	// The same engine over a domain of 2^12: one comparison is 78 kB of
	// residues. Twelve queries of 20 candidates each are one chunk under the
	// cap, whose first quickselect round alone would be 228 comparisons.
	rsa, err := yao.GenerateRSAKey(rand.New(rand.NewSource(1)), 256)
	if err != nil {
		t.Fatal(err)
	}
	wide := (&compare.YMPPBob{Pub: &rsa.RSAPublicKey, Max: 1 << 12}).FrameBytes()
	bound := chunkBound(wide)
	const queries, nCand = 12, 20
	if bound >= lockstepChunk || bound < nCand || queries*nCand > lockstepChunk || queries*(nCand-1)*wide <= transport.MaxFrameSize {
		t.Fatalf("fixture: %d bytes a comparison, bound %d — want the frame rule to bind and the cap's one chunk to be over the limit", wide, bound)
	}
	pa, pb := transport.Pipe()
	defer pa.Close()
	go func() {
		for {
			if _, err := pb.Recv(); err != nil {
				return
			}
		}
	}()
	rows := make([][]coreQuery, queries)
	for i := range rows {
		rows[i] = []coreQuery{{SubQuery{Point: i, NCand: nCand}, 1 + i%nCand}}
	}
	vals := make([]int64, queries*nCand)
	for i := range vals {
		vals[i] = int64(i * 7919 % 101)
	}
	for _, kind := range []SelectionKind{SelectionScan, SelectionQuick} {
		chunks := 0
		_, _, err := settleSchedule(rows, func(row []coreQuery) int { return row[0].NCand }, 1, bound,
			func(_ int, chunk []coreQuery) ([]bool, error) {
				chunks++
				ks, ns := make([]int, len(chunk)), make([]int, len(chunk))
				for r, q := range chunk {
					ks[r], ns[r] = q.k, q.NCand
				}
				most := len(chunk) // the final batch
				_, _, err := selectRows(kind, ks, ns, func(pairs [][2]int, _ []int) ([]bool, error) {
					most = max(most, len(pairs))
					return answer(vals, pairs), nil
				})
				if err == nil && most*wide > transport.MaxFrameSize/4 {
					err = fmt.Errorf("a round of %d comparisons, %d bytes, is over a quarter of the limit", most, most*wide)
				}
				if err == nil {
					err = pa.Send(make([]byte, most*wide))
				}
				return make([]bool, len(chunk)), err
			})
		if err != nil || chunks < 2 {
			t.Errorf("%s: %d chunks: %v", kind, chunks, err)
		}
	}
	first := 0
	if _, _, err := selectRows(SelectionQuick, slices.Repeat([]int{1}, queries), slices.Repeat([]int{nCand}, queries),
		func(pairs [][2]int, _ []int) ([]bool, error) {
			first = max(first, len(pairs))
			return answer(vals, pairs), nil
		}); err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(make([]byte, first*wide)); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Errorf("a round of all %d queries, %d bytes: Send = %v, want ErrFrameTooLarge", queries, first*wide, err)
	}
}
