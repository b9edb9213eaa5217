package core

import (
	"fmt"
	"math/big"

	"repro/internal/compare"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// The enhanced horizontal protocol (§5, Algorithms 7–8) replaces the basic
// protocol's per-query neighbour count with a single core-point bit:
//
//  1. Share phase. The driver publishes the encryption of its extended
//     point vector a = (ΣA_k², −2A_1, …, −2A_m, 1); for each of its points
//     B_i the responder returns E(a·b_i + v_i) with b_i = (1, B_i1, …,
//     B_im, ΣB_ik²) and a fresh mask v_i, so the parties hold additive
//     shares u_i − v_i = Dist²(A, B_i) — the paper's dot-product identity.
//  2. Selection phase. The parties find the k-th smallest distance, with
//     k = MinPts − |own neighbours|, using only secure comparisons on the
//     shares: Dist_a ≤ Dist_b ⟺ u_a − u_b ≤ v_a − v_b. Either the O(kn)
//     scan or quickselect (Config.Selection).
//  3. Final phase. One secure comparison u_κ ≤ Eps² + v_κ yields the core
//     bit (Theorem 11's only intended disclosure).
//
// The selection comparisons necessarily reveal the relative order of the
// masked distances and the value of k (the responder observes the round
// count); both are recorded in the Ledger (OrderBits, CoreBits).
//
// Round structure (Config.Batching): the share phase is always a single
// round trip (ReceiverDotMany, now on the parallel Paillier pool). Under
// the default batched mode the selection phase additionally batches every
// independent comparison of one selection step (tournament rounds for the
// scan, per-pivot batches for quickselect — see kthSmallestBatch), so one
// core query costs O(k·log n) (scan) or expected O(log n) (quickselect)
// comparison round trips instead of O(k·n)/O(n), with the exact same
// comparison count and OrderBits leakage.

// EnhancedHorizontalAlice runs the §5 protocol as Alice. The peer must
// concurrently run EnhancedHorizontalBob. This is the one-shot form; see
// NewEnhancedHorizontalSession for long-lived serving.
func EnhancedHorizontalAlice(conn transport.Conn, cfg Config, points [][]float64) (*Result, error) {
	return runOneShot(NewEnhancedHorizontalSession(conn, cfg, RoleAlice, points))
}

// EnhancedHorizontalBob is Alice's counterpart; see EnhancedHorizontalAlice.
func EnhancedHorizontalBob(conn transport.Conn, cfg Config, points [][]float64) (*Result, error) {
	return runOneShot(NewEnhancedHorizontalSession(conn, cfg, RoleBob, points))
}

// enhancedEngines builds the two comparator pairs the §5 protocol needs:
// share-difference comparisons over [0, 2(bound+V)] and the final
// threshold comparison over [0, bound+V].
func (s *Pair) enhancedEngines() (shareA compare.Alice, shareB compare.Bob, finalA compare.Alice, finalB compare.Bob, err error) {
	shareA, shareB, err = s.engines(2 * (s.bound + s.shareV))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	finalA, finalB, err = s.engines(s.bound + s.shareV)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return shareA, shareB, finalA, finalB, nil
}

// settleEnhanced is the enhanced protocol's settle step: every own point's
// core bit, decided before the walk — rqs[i] is point i's own
// neighbourhood — by enhancedIsCore, point i on worker channel i mod W,
// each worker taking its points in order and all W concurrently. What a
// core query asks depends on the point, our own data (k) and the peer's
// directories, never on a label, and Algorithm 4 queries every own point,
// so this is exactly the set of first queries the walk makes.
func settleEnhanced(s *Pair, hs *hStream, rqs [][]int) ([]bool, error) {
	shareA, _, finalA, _, err := s.enhancedEngines()
	if err != nil {
		return nil, err
	}
	w := len(s.Conns)
	cores := make([]bool, len(rqs))
	return cores, runWave(min(w, len(rqs)), func(t int) error {
		for i := t; i < len(rqs); i += w {
			core, err := enhancedIsCore(s, hs, s.Conns[t], i, len(rqs[i]), shareA, finalA)
			if err != nil {
				return err
			}
			cores[i] = core
		}
		return nil
	})
}

// enhCached reads point's core bit from the cross-run cache when it is
// still valid: neighbour counts only grow under appends, so a cached true
// bit is valid forever, and any cached bit is valid while both datasets
// are unchanged.
func enhCached(hs *hStream, point int) (core, ok bool) {
	e, ok := hs.peer.getEnh(point)
	if !ok || !(e.core || (e.ownN == len(hs.own.Enc) && e.peerN == hs.peer.N)) {
		return false, false
	}
	return e.core, true
}

// enhancedIsCore decides whether the driver's point is a core point given
// it already has ownCount own-side neighbours. k = MinPts − ownCount peer
// neighbours are still needed; the trivial cases never touch the network.
// Under grid pruning the share and selection phases run over the padded
// occupancy of the query point's candidate cells instead of every peer
// point, with dummy entries pinned to the maximal distance — a query
// whose candidate cells cannot hold k points is decided locally.
//
// The cross-run cache (enhCached) short-circuits the whole exchange when
// it can. A cached skip issues no frames at all — like the trivial local
// cases — so the enhanced protocol's mechanical OrderBits/CoreBits record
// at most a fresh run's (the pruning-equivalence convention).
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
	var usBig []*big.Int
	var err error
	if s.packing() {
		pk, perr := s.dotPacker(&s.paiKey.PublicKey)
		if perr != nil {
			return false, perr
		}
		usBig, err = mpc.ReceiverDotManyPacked(conn, s.paiKey, a, nCand, pk, s.random, s.pool)
	} else {
		usBig, err = mpc.ReceiverDotMany(conn, s.paiKey, a, nCand, s.random, s.pool)
	}
	if err != nil {
		return false, fmt.Errorf("core: enhanced share phase: %w", err)
	}
	// The E(a) uplink is m+2 ciphertexts in every packing mode; only the
	// replies pack. It opens the dot-product sub-protocol: request leg.
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
				// Full packing: the responder retained E(u_i) from the
				// share phase and re-derives each E(u_x − u_y + shift)
				// itself, so the selection sends no uplink ciphertexts.
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
		// The responder still holds E(u_κ): a one-element derived batch
		// keeps the final comparison uplink-free too.
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
	// Only network-decided bits are cached (locally decided ones are free
	// to re-derive); the entry carries the dataset sizes so a false bit is
	// reused only while both datasets are unchanged.
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
// points plus nDummy padding entries. A dummy's data vector pins its
// shared distance to the domain bound — strictly beyond Eps² whenever
// pruning is active — so dummies can never be selected as within range.
func enhancedServeCore(s *Pair, conn transport.Conn, rng PermSource, pts [][]int64, nDummy, k int, shareB compare.Bob, finalB compare.Bob) error {
	n := len(pts) + nDummy
	if k < 1 || k > n {
		return fmt.Errorf("core: driver requested k=%d of %d points", k, n)
	}
	// Fresh per-query permutation, as in Algorithm 4; the selection then
	// operates on permuted indices on both sides consistently (the driver
	// sees only the permuted order).
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
	// ds (full packing only): the per-point share ciphertexts E(u_i) this
	// party computed but never sent individually — retained so the
	// selection and final comparisons can re-derive their operand
	// ciphertexts without any comparison uplink.
	var ds []*big.Int
	if s.packing() {
		pk, err := s.dotPacker(s.peerPai)
		if err != nil {
			return err
		}
		if s.derivedCompare() {
			ds, err = mpc.SenderDotManyPackedRetain(conn, s.peerPai, bs, vs, pk, s.random, s.pool)
		} else {
			err = mpc.SenderDotManyPacked(conn, s.peerPai, bs, vs, pk, s.random, s.pool)
		}
		if err != nil {
			return fmt.Errorf("core: enhanced packed share phase: %w", err)
		}
		// Masked dot-product replies: response leg.
		s.ctsDown.Add(int64(pk.Groups(n)))
	} else {
		if err := mpc.SenderDotMany(conn, s.peerPai, bs, vs, s.random, s.pool); err != nil {
			return fmt.Errorf("core: enhanced share phase: %w", err)
		}
		s.ctsDown.Add(int64(n))
	}

	setTag(conn, "enh.select")
	shift := s.bound + s.shareV
	// encShift (full packing only): g^shift under the driver's key, the
	// constant term of every derived selection operand E(u_x − u_y +
	// shift). Unblinded, like the retained ds it is added to: the derived
	// bases never travel, and every reply is freshly randomized by its own
	// packed encryption (see "When a nonce is owed" in package paillier).
	var encShift *big.Int
	if s.derivedCompare() {
		var err error
		if encShift, err = s.peerPai.Unblinded(big.NewInt(shift)); err != nil {
			return err
		}
	}
	var kth, comparisons int
	var err error
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

// derivedShareDiff builds the derived selection operand E(u_x − u_y +
// shift) for pr = (x, y) from the retained share ciphertexts:
// ds[x]·ds[y]⁻¹·encShift.
func derivedShareDiff(pub *paillier.PublicKey, ds []*big.Int, encShift *big.Int, pr [2]int) (*big.Int, error) {
	neg, err := pub.Mul(ds[pr[1]], big.NewInt(-1))
	if err != nil {
		return nil, err
	}
	diff, err := pub.Add(ds[pr[0]], neg)
	if err != nil {
		return nil, err
	}
	return pub.Add(diff, encShift)
}

// extendedQueryVector builds the §5 query-side vector
// (ΣA_k², −2A_1, …, −2A_m, 1).
func extendedQueryVector(p []int64) []int64 {
	out := make([]int64, 0, len(p)+2)
	var sq int64
	for _, x := range p {
		sq += x * x
	}
	out = append(out, sq)
	for _, x := range p {
		out = append(out, -2*x)
	}
	return append(out, 1)
}

// extendedDataVector builds the §5 data-side vector
// (1, B_1, …, B_m, ΣB_k²).
func extendedDataVector(p []int64) []int64 {
	out := make([]int64, 0, len(p)+2)
	out = append(out, 1)
	var sq int64
	for _, x := range p {
		sq += x * x
		out = append(out, x)
	}
	return append(out, sq)
}

// dummyDataVector builds a padding data vector whose dot product with any
// query vector a = (ΣA², −2A, 1) is exactly the domain bound: all-zero
// except the trailing component. Its shared distance u − v = bound stays
// inside the driver's range check and, because pruning only engages when
// Eps² < bound, strictly outside the Eps ball.
func dummyDataVector(m int, bound int64) []int64 {
	out := make([]int64, m+2)
	out[m+1] = bound
	return out
}
