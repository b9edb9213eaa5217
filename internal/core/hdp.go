package core

import (
	"fmt"
	"math/big"

	"repro/internal/compare"
	"repro/internal/mpc"
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
// The candidate count nCand is every responder point on the one-cell grid
// of Config.Pruning "off" (the paper-literal exhaustive query), or the
// padded occupancy of the ≤3^d grid cells adjacent to P's cell under the
// default grid pruning — see prune.go. Pruned queries mix the real cell
// members with always-out-of-range dummy entries up to the disclosed
// padded counts, so a sub-query's batch size carries no information
// beyond the session's index exchange.
//
// Round structure. Algorithm 4 queries every own point at least once and
// a query's operands do not depend on labels, so the rounds are not paid
// per query but per chunk of the settle step (settle.go): before the
// cluster walk, every (own point, peer generation) sub-query the cache
// does not answer is enumerated, whole rows — one own point's sub-queries
// — are packed into chunks, and a chunk is one exchange on one worker
// channel, the same at every packing: the op frame naming its sub-queries;
// the responder's encrypted coordinates, permuted and padded per
// sub-query, packed per row and shifted to their reply slots (mpc's
// row-dot shape); the driver's reply, in
// which every slot is one exact dot product; then the comparisons, one
// per instance, row = own point. The modes differ only in the slot count
// S — the key's under "slots" and "full", S = 1 under "off" — and in the
// comparison leg: one BatchLessRows — rows name own points, so a grouped
// uplink under "full" dedups within one — of three frames, or, under
// sequential batching, the engine runs it one comparison sub-protocol per
// instance (the paper-literal schedule).
//
// All modes run the same chunks and decide identical predicates, so labels
// and leakage Ledgers are byte-for-byte equal; only frames and bytes
// differ. The paper's zero-sum masks are gone from the wire: given their
// sum, the m masked shares of a candidate are (to the statistical distance
// the mask width buys) uniform — the first m−1 are pads and the last is
// fixed by the sum — so the dot product is everything the responder's view
// of the masked round contains, and a reply that decrypts to exactly that
// (under one fresh nonce) hands it the same view at a third of the slot
// width. The masked round itself survives as the per-query test oracle the
// settle differential checks every packing against.
// The responder permutes and pads freshly per sub-query (Algorithm 4's
// SetOfPointsOfBobPermutation), so the driver learns one in-range count
// per (own point, peer generation), not which candidate answered.

// HDPCount runs the driver side of one already-announced settle chunk on
// worker channel ch: the row-dot exchange over every sub-query's candidate
// instances, then one comparison each, and returns each sub-query's
// in-range count. own holds our encoded points (a sub-query's Point
// indexes it); eng is channel ch's Alice-side split-threshold comparator
// (DistEngines).
func (s *Pair) HDPCount(ch int, eng compare.Alice, own [][]int64, chunk []SubQuery) ([]int, error) {
	// One row per own point with candidates: its column scalars are the
	// point's coordinates, its comparison operand Σp² on every instance.
	counts := make([]int, len(chunk))
	var rowLens, rows []int
	var ys [][]int64
	var vs []int64
	for _, q := range chunk {
		if q.NCand == 0 {
			continue
		}
		p := own[q.Point]
		if len(rows) == 0 || rows[len(rows)-1] != q.Point {
			rowLens, ys = append(rowLens, 0), append(ys, p)
		}
		rowLens[len(rowLens)-1] += q.NCand
		for sq, c := sumSq(p), 0; c < q.NCand; c++ {
			vs, rows = append(vs, sq), append(rows, q.Point)
		}
	}
	if len(vs) == 0 {
		return counts, nil
	}
	conn := s.Conns[ch]
	setTag(conn, "hdp.mp")
	if err := mpc.SenderRowDot(conn, s.peerPai, ys, rowLens, s.dim, s.rdPeer, s.streams[ch], s.pool); err != nil {
		return nil, fmt.Errorf("core: hdp row multiplication: %w", err)
	}
	// The folded dot products answer the responder's encrypted operands:
	// response leg.
	s.ctsDown.Add(int64(len(mpc.LayoutRows(rowLens, s.rdPeer.Slots()).Replies)))
	setTag(conn, "hdp.cmp")
	ins, err := eng.BatchLessRows(conn, vs, rows)
	if err != nil {
		return nil, fmt.Errorf("core: hdp comparison: %w", err)
	}
	t := 0
	for u, q := range chunk {
		for _, in := range ins[t : t+q.NCand] {
			if in {
				counts[u]++
			}
		}
		t += q.NCand
	}
	return counts, nil
}

// HDPServe serves the responder side of HDPCount. rows holds the chunk's
// candidate instances row by row, each sub-query's already permuted with
// its padding (a dummy is a nil point, never counted in range). The
// driver's points never leave the driver; the responder learns, per its
// own point, whether some driver point is within Eps (Algorithm 4 note:
// "Bob only knows there is a record owned by Alice in the neighborhood").
// It runs on worker channel ch; eng is that channel's Bob-side
// split-threshold comparator (DistEngines).
func (s *Pair) HDPServe(ch int, eng compare.Bob, rows [][][]int64) error {
	rowLens := make([]int, len(rows))
	var cands [][]int64
	for r, row := range rows {
		rowLens[r], cands = len(row), append(cands, row...)
	}
	if len(cands) == 0 {
		return nil
	}
	conn := s.Conns[ch]
	setTag(conn, "hdp.mp")
	dots, err := mpc.ReceiverRowDot(conn, s.paiKey, s.candidateCoords(cands), rowLens, s.dim, s.rdOwn, s.streams[ch], s.pool)
	if err != nil {
		return fmt.Errorf("core: hdp row multiplication: %w", err)
	}
	// The receiver's encrypted coordinates open the MP exchange: request
	// leg.
	s.ctsUp.Add(int64(len(mpc.LayoutRows(rowLens, s.rdOwn.Slots()).Groups) * s.dim))
	setTag(conn, "hdp.cmp")
	js := make([]int64, len(cands))
	for i, pt := range cands {
		if js[i], err = s.candidateOperand(eng.Bound(), pt, dots[i]); err != nil {
			return err
		}
	}
	if _, err = eng.BatchLess(conn, js); err != nil {
		return fmt.Errorf("core: hdp comparison: %w", err)
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

// candidateCoords lists the candidates' coordinates, instance-major: what
// the responder encrypts for the MP phase. A dummy enters with zero
// coordinates, indistinguishable from a real candidate on the wire.
func (s *Pair) candidateCoords(cands [][]int64) []int64 {
	xs := make([]int64, 0, len(cands)*s.dim)
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
		return 0, fmt.Errorf("core: hdp dot product overflows int64")
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
