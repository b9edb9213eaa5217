package core

import (
	"fmt"
	"math/big"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/mpc"
	"repro/internal/paillier"
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
// Round structure. A driving pass asks every core query the cache and the
// local cases leave open up front (settleEnhanced), and a query is one row
// of settleSchedule, weighing its candidates: a chunk of whole queries, at
// most chunkBound of the share engine's FrameBytes in candidates, is one
// exchange. Its op frame names every query (point, k, candidate cells), and
// then the three phases run once for the whole chunk: one share exchange —
// every row's E(a) up, the replies packed across rows (mpc.ReceiverDotRows)
// — then the selection, every query's step machine (selector) in lockstep,
// one batch a round carrying every unfinished query's next comparisons,
// and one batch of every query's final comparison. Both parties run the
// step machines from each query's k and candidate count, so no frame
// carries the schedule; a query asks the same comparisons in the same
// order as it would alone, so OrderBits and CoreBits do not depend on the
// chunking. A comparison round is a derived batch under full packing (the
// responder rebuilds every operand from its retained share ciphertexts, so
// nothing goes up), one batch whose grouped uplink keeps its equality
// classes inside one query otherwise, and one comparison at a time under
// sequential batching.

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

// enhancedEngines builds the two comparator pairs the §5 protocol needs,
// one of each per worker channel: share-difference comparisons over
// [0, 2(bound+V)] and the final threshold comparison over [0, bound+V].
func (s *Pair) enhancedEngines() (shareA []compare.Alice, shareB []compare.Bob, finalA []compare.Alice, finalB []compare.Bob, err error) {
	if shareA, shareB, err = s.engines(2 * (s.bound + s.shareV)); err == nil {
		finalA, finalB, err = s.engines(s.bound + s.shareV)
	}
	return shareA, shareB, finalA, finalB, err
}

// coreQuery is one own point's core query, a row of the enhanced settle
// schedule: k more neighbours needed out of NCand candidates — the peer's
// whole live set or, under grid pruning, the padded occupancy of the
// announced cells.
type coreQuery struct {
	SubQuery
	k int
}

// settleEnhanced is the enhanced protocol's settle step: every own point's
// core bit, decided before the walk — rqs[i] is point i's own
// neighbourhood. What a core query asks depends on the point, our own data
// (k) and the peer's directories, never on a label, and Algorithm 4
// queries every own point, so this is exactly the set of first queries the
// walk makes. A point with k ≤ 0, one the cross-run cache answers
// (enhCached) and one whose candidates cannot hold k points are decided
// locally, sending nothing; the rest go through settleSchedule, and their
// bits are cached on the calling goroutine once every worker has returned.
func settleEnhanced(s *Pair, hs *hStream, rqs [][]int) ([]bool, error) {
	shareA, _, finalA, _, err := s.enhancedEngines()
	if err != nil {
		return nil, err
	}
	own, nPeer := hs.own.Enc, hs.peer.N
	cores := make([]bool, len(rqs))
	var rows [][]coreQuery
	for i, nbrs := range rqs {
		k := s.cfg.MinPts - len(nbrs)
		if k <= 0 {
			cores[i] = true
			continue
		}
		if core, ok := enhCached(hs, i); ok {
			s.cmpCached.Add(1)
			cores[i] = core
			continue
		}
		// The exhaustive query (flagged on the op frame) unless pruning
		// shrinks it, so pruning never enlarges a selection.
		q := coreQuery{SubQuery{Point: i, NCand: nPeer}, k}
		s.narrow(&q.SubQuery, hs.peer, own[i], 0, len(hs.peer.dirs))
		if k <= q.NCand {
			rows = append(rows, []coreQuery{q})
		}
	}
	chunks, bits, err := settleSchedule(rows, func(row []coreQuery) int { return row[0].NCand },
		len(s.Conns), chunkBound(shareA[0].FrameBytes()),
		func(ch int, chunk []coreQuery) ([]bool, error) {
			return s.coreChunk(ch, shareA[ch], finalA[ch], own, chunk)
		})
	if err != nil {
		return nil, err
	}
	for c, chunk := range chunks {
		for u, q := range chunk {
			// Only network-decided bits are cached (locally decided ones are
			// free to re-derive); the entry carries the dataset sizes so a
			// false bit is reused only while both datasets are unchanged.
			cores[q.Point] = bits[c][u]
			hs.peer.putEnh(q.Point, enhEntry{core: bits[c][u], ownN: len(own), peerN: nPeer})
		}
	}
	return cores, nil
}

// enhCached reads point's core bit from the cross-run cache when it is
// still valid: neighbour counts only grow under appends, so a cached true
// bit is valid forever, and any cached bit is valid while both datasets
// are unchanged. A cached skip issues no frames at all — like the trivial
// local cases — so the enhanced protocol's mechanical OrderBits/CoreBits
// record at most a fresh run's (the pruning-equivalence convention).
func enhCached(hs *hStream, point int) (core, ok bool) {
	e, ok := hs.peer.getEnh(point)
	if !ok || !(e.core || (e.ownN == len(hs.own.Enc) && e.peerN == hs.peer.N)) {
		return false, false
	}
	return e.core, true
}

// coreChunk runs the driver side of one chunk of core queries on worker
// channel ch, on that channel's engines, and returns their core bits.
func (s *Pair) coreChunk(ch int, shareA, finalA compare.Alice, own [][]int64, chunk []coreQuery) ([]bool, error) {
	conn := s.Conns[ch]
	setTag(conn, "enh.op")
	msg := transport.NewBuilder().PutUint(opCore).PutUint(uint64(len(chunk)))
	as := make([][]int64, len(chunk))
	ks, ns := make([]int, len(chunk)), make([]int, len(chunk))
	for r, q := range chunk {
		msg.PutUint(uint64(q.Point)).PutUint(uint64(q.k))
		s.Announce(msg, q.SubQuery)
		as[r], ks[r], ns[r] = extendedQueryVector(own[q.Point]), q.k, q.NCand
	}
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, err
	}

	// Share phase: u_i = Dist²(A, B_i) + v_i for every candidate of every
	// query.
	setTag(conn, "enh.share")
	pk, err := s.dotPacker(&s.paiKey.PublicKey)
	if err != nil {
		return nil, err
	}
	usBig, err := mpc.ReceiverDotRows(conn, s.paiKey, as, ns, pk, s.streams[ch], s.pool)
	if err != nil {
		return nil, fmt.Errorf("core: enhanced share phase: %w", err)
	}
	// The E(a) uplink is m+2 ciphertexts a query in every packing mode; only
	// the replies pack. It opens the dot-product sub-protocol: request leg.
	s.ctsUp.Add(int64(len(chunk) * len(as[0])))
	// Every share lies in [0, shift), so shift keeps every selection operand
	// non-negative.
	shift := s.bound + s.shareV
	us := make([]int64, len(usBig))
	for i, u := range usBig {
		if !u.IsInt64() || u.Int64() < 0 || u.Int64() >= shift {
			return nil, fmt.Errorf("core: share u[%d]=%v outside [0,%d)", i, u, shift)
		}
		us[i] = u.Int64()
	}

	// Selection phase: the index of every query's k-th smallest shared
	// distance. Dist_x ≤ Dist_y ⟺ u_x − u_y ≤ v_x − v_y.
	setTag(conn, "enh.select")
	kth, comparisons, err := selectRows(s.cfg.Selection, ks, ns, func(pairs [][2]int, rows []int) ([]bool, error) {
		vals := make([]int64, len(pairs))
		for t, pr := range pairs {
			vals[t] = us[pr[0]] - us[pr[1]] + shift
		}
		return s.enhAsk(conn, shareA, vals, rows)
	})
	if err != nil {
		return nil, fmt.Errorf("core: enhanced selection: %w", err)
	}
	s.led(func(l *Ledger) { l.OrderBits += comparisons })

	// Final phase: Dist_κ ≤ Eps² ⟺ u_κ ≤ Eps² + v_κ.
	setTag(conn, "enh.final")
	vals, rows := make([]int64, len(kth)), make([]int, len(kth))
	for r, t := range kth {
		vals[r], rows[r] = us[t], r
	}
	cores, err := s.enhAsk(conn, finalA, vals, rows)
	if err != nil {
		return nil, fmt.Errorf("core: enhanced final comparison: %w", err)
	}
	s.led(func(l *Ledger) { l.CoreBits += len(chunk) })
	return cores, nil
}

// enhAsk decides vals[t] ≤ the responder's operand t for every t on conn:
// one derived batch under full packing with the masked engine (the
// responder rebuilds every operand's ciphertext from the share ciphertexts
// it retained, so nothing goes up), one batch otherwise — rows[t] names
// instance t's query, so a grouped uplink's equality classes never span
// two own points (compare/full.go).
func (s *Pair) enhAsk(conn transport.Conn, eng compare.Alice, vals []int64, rows []int) ([]bool, error) {
	if s.derivedCompare() {
		return eng.(compare.DerivedAlice).BatchLessEqDerived(conn, vals)
	}
	return eng.BatchLessEqRows(conn, vals, rows)
}

// enhAnswer is the responder's half of enhAsk: vals[t] is its operand t,
// and base(t), read under derived comparisons only, the driver's operand
// negated, built from the retained share ciphertexts (negShares).
func (s *Pair) enhAnswer(conn transport.Conn, eng compare.Bob, vals []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
	if s.derivedCompare() {
		return eng.(compare.DerivedBob).BatchLessEqDerived(conn, vals, base)
	}
	return eng.BatchLessEq(conn, vals)
}

// servedCore is one core query of a chunk as its responder resolved it.
type servedCore struct {
	point, k int
	pts      [][]int64 // real candidates, generation order
	nDummy   int
}

// readCoreOp parses a chunk of core queries (after its op code) and
// resolves every query's candidates. The frame is whatever the driver
// chose to send, so before anything is permuted, encrypted or recorded on
// its behalf the whole of it is held to what an honest schedule produces:
// at least one and at most driverN queries (and no more than the frame has
// bytes for), points strictly ascending below driverN, k in [1, nCand] for
// every query, no more than bound candidates in all unless the chunk is a
// single query, and no point the pass has already asked about — seen is
// the pass's bitmap, one for all W responder workers.
func (s *Pair) readCoreOp(r *transport.Reader, own *OwnGens, bound int, seen []atomic.Bool) ([]servedCore, error) {
	driverN := len(seen)
	n := r.Uint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 1 || n > uint64(driverN) || n > uint64(r.Remaining()/2) {
		return nil, fmt.Errorf("%w: chunk of %d core queries for %d points", ErrQueryOp, n, driverN)
	}
	qs := make([]servedCore, n)
	total, indexCells := 0, 0
	for u := range qs {
		point, k := r.Uint(), r.Uint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if point >= uint64(driverN) || (u > 0 && point <= uint64(qs[u-1].point)) {
			return nil, fmt.Errorf("%w: core query %d names point %d of %d, not ascending", ErrQueryOp, u, point, driverN)
		}
		q := &qs[u]
		var cells int
		var err error
		if q.pts, q.nDummy, cells, err = s.readPruned(r, own, 0, own.Gens()); err != nil {
			return nil, fmt.Errorf("%w: core query %d: %w", ErrQueryOp, u, err)
		}
		nCand := len(q.pts) + q.nDummy
		if k < 1 || k > uint64(nCand) {
			return nil, fmt.Errorf("%w: core query %d asks for the %d-th of %d candidates", ErrQueryOp, u, k, nCand)
		}
		q.point, q.k = int(point), int(k)
		total, indexCells = total+nCand, indexCells+cells
	}
	if total > bound && n > 1 {
		return nil, fmt.Errorf("%w: chunk of %d candidates over %d core queries, bound %d", ErrQueryOp, total, n, bound)
	}
	for _, q := range qs {
		if seen[q.point].Swap(true) {
			return nil, fmt.Errorf("%w: point %d asked about twice in one pass", ErrQueryOp, q.point)
		}
	}
	if indexCells > 0 {
		s.led(func(l *Ledger) { l.IndexQueryCells += indexCells })
	}
	return qs, nil
}

// serveCoreChunk answers one chunk of core queries on worker channel ch,
// on that channel's engines, whose op code Serve has consumed: the
// responder side of settleEnhanced. Every query draws
// its own permutation, in query order, over its own candidates and
// padding, as in Algorithm 4: the selection then runs on permuted indices
// on both sides alike, and the driver sees only the permuted order. A
// dummy's data vector pins its shared distance to the domain bound —
// strictly beyond Eps² whenever pruning is active — so a dummy is never
// selected as within range.
func (s *Pair) serveCoreChunk(ch int, rng PermSource, shareB, finalB compare.Bob, own *OwnGens, seen []atomic.Bool, r *transport.Reader) error {
	conn, random := s.Conns[ch], s.streams[ch]
	qs, err := s.readCoreOp(r, own, chunkBound(shareB.FrameBytes()), seen)
	if err != nil {
		return err
	}
	ks, ns := make([]int, len(qs)), make([]int, len(qs))
	var bs [][]int64
	var vs []*big.Int
	var vals []int64
	vBound := big.NewInt(s.shareV)
	for u, q := range qs {
		ks[u], ns[u] = q.k, len(q.pts)+q.nDummy
		for _, pi := range rng.Perm(ns[u]) {
			v, err := mpc.RandomMask(random, vBound)
			if err != nil {
				return err
			}
			b := dummyDataVector(s.dim, s.bound)
			if pi < len(q.pts) {
				b = extendedDataVector(q.pts[pi])
			}
			bs, vs, vals = append(bs, b), append(vs, v), append(vals, v.Int64())
		}
	}

	setTag(conn, "enh.share")
	pk, err := s.dotPacker(s.peerPai)
	if err != nil {
		return err
	}
	// ds (derived comparisons only): every candidate's share ciphertext
	// E(u_i), computed but never sent on its own — retained so the selection
	// and final comparisons re-derive their operands without any uplink.
	ds, err := mpc.SenderDotRows(conn, s.peerPai, bs, ns, vs, pk, s.derivedCompare(), random, s.pool)
	if err != nil {
		return fmt.Errorf("core: enhanced share phase: %w", err)
	}
	// Masked dot-product replies: response leg.
	s.ctsDown.Add(int64(pk.Groups(len(bs))))

	setTag(conn, "enh.select")
	shift := s.bound + s.shareV
	var neg *negShares // derived comparisons only
	if s.derivedCompare() {
		if neg, err = newNegShares(s.peerPai, ds, shift); err != nil {
			return err
		}
	}
	kth, comparisons, err := selectRows(s.cfg.Selection, ks, ns, func(pairs [][2]int, _ []int) ([]bool, error) {
		ops := make([]int64, len(pairs))
		for t, pr := range pairs {
			ops[t] = vals[pr[0]] - vals[pr[1]] + shift
		}
		return s.enhAnswer(conn, shareB, ops, func(t int) (*big.Int, error) {
			return neg.selection(pairs[t])
		})
	})
	if err != nil {
		return fmt.Errorf("core: enhanced selection: %w", err)
	}
	s.led(func(l *Ledger) { l.OrderBits += comparisons })

	setTag(conn, "enh.final")
	ops := make([]int64, len(kth))
	for u, t := range kth {
		ops[u] = s.epsSq + vals[t]
	}
	if _, err := s.enhAnswer(conn, finalB, ops, func(u int) (*big.Int, error) { return neg.inv[kth[u]], nil }); err != nil {
		return fmt.Errorf("core: enhanced final comparison: %w", err)
	}
	s.led(func(l *Ledger) { l.CoreBits += len(qs) })
	return nil
}

// negShares is what a chunk's derived comparison bases are built from:
// a derived base encrypts its left operand negated (compare.DerivedBob),
// so the chunk's retained share ciphertexts ds, D_i = E(u_i), are
// inverted once, together (paillier.Inverses: one modular inversion a
// chunk), and the constant g^{−shift} is made once. g^{−shift} is
// Unblinded, like the retained ds it joins: the derived bases never
// travel, and every reply is freshly randomized by its own packed
// encryption (see "When a nonce is owed" in package paillier).
type negShares struct {
	pub      *paillier.PublicKey // the driver's key
	ds, inv  []*big.Int          // inv[i] = D_i⁻¹ = E(−u_i): the final comparison's base
	negShift *big.Int            // g^{−shift}
}

func newNegShares(pub *paillier.PublicKey, ds []*big.Int, shift int64) (*negShares, error) {
	inv, err := pub.Inverses(ds)
	if err != nil {
		return nil, err
	}
	negShift, err := pub.Unblinded(big.NewInt(-shift))
	if err != nil {
		return nil, err
	}
	return &negShares{pub: pub, ds: ds, inv: inv, negShift: negShift}, nil
}

// selection builds the derived selection base for pr = (x, y), the
// operand u_x − u_y + shift negated: E(u_y − u_x − shift) =
// D_y·D_x⁻¹·g^{−shift}.
func (n *negShares) selection(pr [2]int) (*big.Int, error) {
	diff, err := n.pub.Add(n.ds[pr[1]], n.inv[pr[0]])
	if err != nil {
		return nil, err
	}
	return n.pub.Add(diff, n.negShift)
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
