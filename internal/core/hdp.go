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
// dist²(P, B) ≤ Eps². The paper pays one Multiplication-Protocol round and
// one comparison round per region query:
//
//	MP phase:  O(c1·m·nCand) bits — a batched Multiplication Protocol in
//	           which the responder (the receiver, holding its coordinates)
//	           obtains the zero-sum-masked per-coordinate products
//	           d_x,k·d_y,k + r_k. Because Σr_k = 0, the responder's sum is
//	           the exact cross dot product (the paper's construction; the
//	           privacy consequence is tracked in the Ledger's DotProducts
//	           class). Tag hdp.mp.
//	Cmp phase: nCand secure comparisons — dist² = i + j' ≤ Eps² with the
//	           driver holding i = Σd_x² and the responder holding
//	           j' = Σd_y² − 2·dot (tag hdp.cmp).
//
// The candidate count nCand is every responder point when Config.Pruning
// is off (the paper-literal exhaustive query), or the padded occupancy of
// the ≤3^d grid cells adjacent to P's cell under the default grid pruning
// — see prune.go. Pruned queries mix the real cell members with
// always-out-of-range dummy entries up to the disclosed padded counts, so
// a sub-query's batch size carries no information beyond the session's
// index exchange.
//
// Round structure. Algorithm 4 queries every own point at least once and
// a query's operands do not depend on labels, so the rounds are not paid
// per query but per chunk of the settle step (settle.go): before the
// cluster walk, every (own point, peer generation) sub-query the cache
// does not answer is enumerated, whole rows — one own point's sub-queries
// — are packed into chunks, and a chunk is one exchange on one worker
// channel. What a chunk's exchange looks like is the mode cube's business:
//
//	full packing: six frames whatever the chunk holds — the op frame
//	    naming its sub-queries; the responder's encrypted coordinates,
//	    permuted and padded per sub-query, packed per row (mpc's row-dot
//	    shape); the driver's reply, in which every slot is one exact dot
//	    product; then one BatchLessRows of three frames over all
//	    instances, row = own point.
//	any other mode: the op frame, then the chunk's sub-queries one after
//	    another through HDPCount / HDPServe below — the reference forms:
//	    the masked MP round of the paper (slot-packed grid under "slots",
//	    the default; one ciphertext per product under "off") and one
//	    BatchLess (batched) or one comparison sub-protocol per candidate
//	    (sequential, the paper-literal schedule).
//
// All modes run the same chunks and decide identical predicates, so labels
// and leakage Ledgers are byte-for-byte equal; only frames and bytes
// differ. The zero-sum masks belong to the reference forms. The row-dot
// reply needs none: given their sum, the m masked shares of a candidate
// are (to the statistical distance the mask width buys) uniform — the
// first m−1 are pads and the last is fixed by the sum — so the dot product
// is everything the responder's view of the masked round contains, and a
// reply that decrypts to exactly that (under one fresh nonce) hands it the
// same view at a third of the slot width.
// The responder permutes and pads freshly per sub-query (Algorithm 4's
// SetOfPointsOfBobPermutation), so the driver learns one in-range count
// per (own point, peer generation), not which candidate answered.

// HDPCount runs the driver side of one already-announced region sub-query
// of point p in its reference form: the masked MP + comparison phases over
// the nCand candidate instances the announcement committed to (none: no
// frames), counting the in-range results. eng is the pair's Alice-side
// split-threshold comparator (DistEngines).
func (s *Pair) HDPCount(conn transport.Conn, eng compare.Alice, p []int64, nCand int) (int, error) {
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
	// instance of the query.
	setTag(conn, "hdp.cmp")
	ownSum := sumSq(p)
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

// HDPServe serves the responder side of HDPCount: the masked MP +
// comparison phases over the given real candidate points plus nDummy
// always-out-of-range padding entries, all freshly permuted together. The
// driver's point never leaves the driver; the responder learns, per its
// own point, whether some driver point is within Eps (Algorithm 4 note:
// "Bob only knows there is a record owned by Alice in the neighborhood").
// eng is the pair's Bob-side split-threshold comparator (DistEngines).
func (s *Pair) HDPServe(conn transport.Conn, rng PermSource, eng compare.Bob, pts [][]int64, nDummy int) error {
	cands := permuteCandidates(rng, pts, nDummy)
	total := len(cands)
	if total == 0 {
		return nil
	}
	setTag(conn, "hdp.mp")
	m := s.dim
	xs := s.candidateCoords(nil, cands)
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
	js := make([]int64, total)
	for i, pt := range cands {
		// Σ_k (d_x,k·d_y,k + r_k): the zero-sum masks cancel.
		dot := new(big.Int)
		for k := 0; k < m; k++ {
			dot.Add(dot, us[i*m+k])
		}
		if js[i], err = s.candidateOperand(eng.Bound(), pt, dot); err != nil {
			return err
		}
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

// permuteCandidates draws one sub-query's fresh permutation over its real
// candidate points and nDummy padding entries; a dummy is a nil point.
func permuteCandidates(rng PermSource, pts [][]int64, nDummy int) [][]int64 {
	cands := make([][]int64, len(pts)+nDummy)
	for i, pi := range rng.Perm(len(cands)) {
		if pi < len(pts) {
			cands[i] = pts[pi]
		}
	}
	return cands
}

// candidateCoords appends the candidates' coordinates, instance-major, to
// xs: what the responder encrypts for the MP phase. A dummy enters with
// zero coordinates, indistinguishable from a real candidate on the wire.
func (s *Pair) candidateCoords(xs []int64, cands [][]int64) []int64 {
	zero := make([]int64, s.dim)
	for _, pt := range cands {
		if pt == nil {
			pt = zero
		}
		xs = append(xs, pt...)
	}
	return xs
}

// candidateOperand turns one candidate's cross dot product into the
// responder's comparison operand: j' = Σd_y² − 2·dot through
// responderOperand. A dummy answers with the out-of-domain operand 0,
// which makes the strict Less predicate false for every driver operand —
// never counted in range.
func (s *Pair) candidateOperand(bound int64, pt []int64, dot *big.Int) (int64, error) {
	if pt == nil {
		return 0, nil
	}
	if !dot.IsInt64() {
		return 0, fmt.Errorf("core: hdp dot product overflows int64 (masks failed to cancel?)")
	}
	return s.responderOperand(bound, sumSq(pt)-2*dot.Int64()), nil
}

// sumSq is Σx² over a point's coordinates.
func sumSq(p []int64) int64 {
	var sq int64
	for _, x := range p {
		sq += x * x
	}
	return sq
}
