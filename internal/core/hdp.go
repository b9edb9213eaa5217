package core

import (
	"fmt"
	"math/big"

	"repro/internal/compare"
	"repro/internal/mpc"
	"repro/internal/transport"
)

// HDP — the horizontally-partitioned distance protocol of §4.2 — decides,
// for one driver point P and every point of the responder, whether
// dist²(P, B) ≤ Eps². One region query costs:
//
//	MP phase:  O(c1·m·nCand) bits — a batched Multiplication Protocol in
//	           which the responder (the receiver, holding its coordinates)
//	           obtains the zero-sum-masked per-coordinate products
//	           d_x,k·d_y,k + r_k. Because Σr_k = 0, the responder's sum is
//	           the exact cross dot product (the paper's construction; the
//	           privacy consequence is tracked in the Ledger). Always one
//	           round trip (tag hdp.mp).
//	Cmp phase: nCand secure comparisons — dist² = i + j' ≤ Eps² with the
//	           driver holding i = Σd_x² and the responder holding
//	           j' = Σd_y² − 2·dot (tag hdp.cmp).
//
// The candidate count nCand is every responder point when Config.Pruning
// is off (the paper-literal exhaustive query), or the padded occupancy of
// the ≤3^d grid cells adjacent to P's cell under the default grid pruning
// — see prune.go. Pruned queries mix the real cell members with
// always-out-of-range dummy entries up to the disclosed padded counts, so
// the per-query batch size carries no information beyond the session's
// index exchange.
//
// Round structure of the Cmp phase (Config.Batching):
//
//	batched (default): one BatchLess carrying all nCand instances — 3
//	    frames per query regardless of nCand, so a full region query is
//	    ≤ 3 hdp.cmp frames plus 2 hdp.mp frames and 1 hdp.op frame, and a
//	    whole pass costs O(n) rather than O(n·nCand) round trips. Bits are
//	    unchanged: the same per-instance payloads travel, packed.
//	sequential: one comparison sub-protocol (3 frames for the masked
//	    engine, 3 for YMPP) per candidate — the paper-literal schedule,
//	    kept for A/B measurement.
//
// Both schedules decide identical predicates in identical order, so
// labels and leakage Ledgers are byte-for-byte equal; only the frame
// count differs. The responder permutes its candidates freshly per query
// (Algorithm 4's SetOfPointsOfBobPermutation), so the driver learns only
// how many peer points are in range, not which.

// HDPCount runs the driver side of one region sub-query of point p: it
// announces the query with its op frame (QueryFrame; nil skips the
// announcement), then runs the MP + comparison phases over the nCand
// candidate instances the frame committed to (none: no further frames)
// and counts the in-range results. eng is the pair's Alice-side
// split-threshold comparator (DistEngines).
func (s *Pair) HDPCount(conn transport.Conn, eng compare.Alice, op *transport.Builder, p []int64, nCand int) (int, error) {
	if op != nil {
		setTag(conn, "hdp.op")
		if err := transport.SendMsg(conn, op); err != nil {
			return 0, err
		}
	}
	if nCand == 0 {
		return 0, nil
	}
	setTag(conn, "hdp.mp")
	// Batched MP: sender role. Masks are zero-sum within each candidate.
	m := len(p)
	mb := s.zeroSumBound()
	vs := make([]*big.Int, 0, nCand*m)
	for i := 0; i < nCand; i++ {
		masks, err := mpc.ZeroSumMasks(s.random, m, mb)
		if err != nil {
			return 0, err
		}
		vs = append(vs, masks...)
	}
	if pk := s.mpPeer; pk != nil {
		// Grid shape: p's coordinate y_k is constant down column k, so
		// both directions pack rows into slot groups.
		if err := mpc.SenderGridMultiply(conn, s.peerPai, p, vs, nCand, m, pk, s.random, s.pool); err != nil {
			return 0, fmt.Errorf("core: hdp packed multiplication: %w", err)
		}
		// Masked products answer the responder's encrypted operands:
		// response leg.
		s.ctsDown.Add(int64(pk.Groups(nCand) * m))
	} else {
		ys := make([]int64, 0, nCand*m)
		for i := 0; i < nCand; i++ {
			ys = append(ys, p...)
		}
		if err := mpc.SenderBatchMultiply(conn, s.peerPai, ys, vs, s.random, s.pool); err != nil {
			return 0, fmt.Errorf("core: hdp multiplication: %w", err)
		}
		s.ctsDown.Add(int64(nCand * m))
	}

	// Comparison phase: we hold the left value Σp², identical for every
	// instance of the query — under "full" packing the grouped uplink
	// collapses the batch to one ciphertext.
	setTag(conn, "hdp.cmp")
	var ownSum int64
	for _, x := range p {
		ownSum += x * x
	}
	count := 0
	if s.batched() {
		vs := make([]int64, nCand)
		for i := range vs {
			vs[i] = ownSum
		}
		ins, err := eng.BatchLess(conn, vs)
		if err != nil {
			return 0, fmt.Errorf("core: hdp batch comparison: %w", err)
		}
		for _, in := range ins {
			if in {
				count++
			}
		}
	} else {
		for i := 0; i < nCand; i++ {
			in, err := eng.Less(conn, ownSum)
			if err != nil {
				return 0, fmt.Errorf("core: hdp comparison %d: %w", i, err)
			}
			if in {
				count++
			}
		}
	}
	return count, nil
}

// HDPServe serves the responder side of the MP + comparison phases over
// the given real candidate points plus nDummy always-out-of-range padding
// entries, all freshly permuted together. The driver's point never leaves
// the driver; the responder learns, per its own point, whether some
// driver point is within Eps (Algorithm 4 note: "Bob only knows there is
// a record owned by Alice in the neighborhood"). Dummies enter the MP
// with zero coordinates and answer every comparison with the
// out-of-domain operand 0, so they are never counted in range and are
// indistinguishable from real candidates on the wire. eng is the pair's
// Bob-side split-threshold comparator (DistEngines).
func (s *Pair) HDPServe(conn transport.Conn, rng PermSource, eng compare.Bob, pts [][]int64, nDummy int) error {
	total := len(pts) + nDummy
	if total == 0 {
		return nil
	}
	setTag(conn, "hdp.mp")
	perm := rng.Perm(total)
	m := s.dim
	xs := make([]int64, 0, total*m)
	zero := make([]int64, m)
	for _, pi := range perm {
		if pi < len(pts) {
			xs = append(xs, pts[pi]...)
		} else {
			xs = append(xs, zero...)
		}
	}
	var us []*big.Int
	var err error
	if pk := s.mpOwn; pk != nil {
		us, err = mpc.ReceiverGridMultiply(conn, s.paiKey, xs, total, m, pk, s.random, s.pool)
		if err != nil {
			return fmt.Errorf("core: hdp packed multiplication: %w", err)
		}
		// The receiver's encrypted coordinates open the MP sub-protocol:
		// request leg.
		s.ctsUp.Add(int64(pk.Groups(total) * m))
	} else {
		us, err = mpc.ReceiverBatchMultiply(conn, s.paiKey, xs, s.random, s.pool)
		if err != nil {
			return fmt.Errorf("core: hdp multiplication: %w", err)
		}
		s.ctsUp.Add(int64(total * m))
	}

	setTag(conn, "hdp.cmp")
	js := make([]int64, len(perm))
	for i, pi := range perm {
		if pi >= len(pts) {
			// Dummy: j = 0 makes the strict Less predicate false for every
			// driver operand, i.e. "not in range".
			js[i] = 0
			continue
		}
		pt := pts[pi]
		// peerSum = Σd_y² − 2·Σ(d_x·d_y + r) ; the zero-sum masks cancel.
		dot := new(big.Int)
		for k := 0; k < m; k++ {
			dot.Add(dot, us[i*m+k])
		}
		if !dot.IsInt64() {
			return fmt.Errorf("core: hdp dot product overflows int64 (masks failed to cancel?)")
		}
		var sq int64
		for _, x := range pt {
			sq += x * x
		}
		js[i] = s.responderOperand(eng.Bound(), sq-2*dot.Int64())
	}
	if s.batched() {
		if _, err := eng.BatchLess(conn, js); err != nil {
			return fmt.Errorf("core: hdp batch comparison: %w", err)
		}
	} else {
		for i, j := range js {
			if _, err := eng.Less(conn, j); err != nil {
				return fmt.Errorf("core: hdp comparison %d: %w", i, err)
			}
		}
	}
	return nil
}
