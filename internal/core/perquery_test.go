package core

import (
	"fmt"
	"math/big"

	"repro/internal/compare"
	"repro/internal/dbscan"
	"repro/internal/mpc"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// The per-query driver of the basic horizontal protocol as it stood before
// the settle step (handshake v11): one live region query at a time, every
// query a sweep of per-generation sub-queries, each its own op frame + MP
// round + comparison round — the paper's masked MP round (maskedHDPCount /
// maskedHDPServe, which were HDPCount / HDPServe up to handshake v13: the
// slot-packed grid under "slots" and "full", one ciphertext per product
// under "off"). Kept verbatim — apart from the names, from HDPCount's
// op-frame argument, which perQueryHDPCount sends itself, and from the
// walk, dbscan.ClusterCore on channel 0 (labels, the Ledger and the
// counters do not depend on W) — as the oracle the settle differential
// (settle_test.go) runs the same lifecycles through: labels, cached
// segments, every Ledger class and both comparison counters must come out
// equal.

// opPerQuery was OpQuery, op code 1.
const opPerQuery uint64 = 1

// newPerQuerySession is NewHorizontalSession on the per-query driver. The
// masked round's product packers were derived by the HDP establishment
// until the row-dot exchange replaced it; the oracle derives them itself.
func newPerQuerySession(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, *hStream, error) {
	t, hs, err := newHorizontalSession(conn, cfg, role, points, "horizontal", hBasic)
	if err == nil {
		err = t.s.productPackers()
		t.runOnce = func() (*Result, error) { return perQueryRunOnce(t, hs) }
	}
	return t, hs, err
}

func perQueryRunOnce(t *Session, hs *hStream) (*Result, error) {
	s := t.s
	var labels []int
	var clusters int
	var err error
	if s.role == RoleAlice {
		if labels, clusters, err = perQueryPassDriver(s, hs); err != nil {
			return nil, err
		}
		if err := perQueryPassResponder(s, hs); err != nil {
			return nil, err
		}
	} else {
		if err := perQueryPassResponder(s, hs); err != nil {
			return nil, err
		}
		if labels, clusters, err = perQueryPassDriver(s, hs); err != nil {
			return nil, err
		}
	}
	return t.result(labels, clusters), nil
}

func perQueryPassDriver(s *Pair, hs *hStream) ([]int, int, error) {
	engA, _, err := s.DistEngines()
	if err != nil {
		return nil, 0, err
	}
	localRQ := func(i int) []int { return hs.own.RegionQuery(i, s.epsSq) }
	labels, clusters := dbscan.ClusterCore(len(hs.own.Enc), localRQ, func(i int, nbrs []int) bool {
		if err != nil {
			return false
		}
		var count int
		count, err = perQueryRemoteCount(s, hs, s.Conns[0], i, engA)
		return len(nbrs)+count >= s.cfg.MinPts
	})
	if err != nil {
		return nil, 0, err
	}
	return labels, clusters, s.SendDone("hdp.op")
}

func perQueryPassResponder(s *Pair, hs *hStream) error {
	_, engB, err := s.DistEngines()
	if err != nil {
		return err
	}
	return s.Serve("hdp.op", map[uint64]OpServer{
		opPerQuery: func(conn transport.Conn, rng PermSource, r *transport.Reader) error {
			return perQueryServe(s, conn, rng, engB, hs.own, r)
		},
	})
}

func perQueryServe(s *Pair, conn transport.Conn, rng PermSource, engB compare.Bob, own *OwnGens, r *transport.Reader) error {
	fromGen := int(r.Uint())
	toGen := int(r.Uint())
	if err := r.Err(); err != nil {
		return err
	}
	gens := own.Gens()
	if fromGen < 0 || toGen > gens || fromGen > toGen {
		return fmt.Errorf("core: query span %d..%d of %d generations", fromGen, toGen, gens)
	}
	if toGen == gens {
		defer s.led(func(l *Ledger) { l.DotProducts += len(own.Enc) })
	}
	if fromGen == toGen {
		// Empty span: the sweep-closing parity frame of a fully-cached
		// query. Nothing to serve.
		return nil
	}
	pts, nDummy, err := s.ReadPrunedOp(r, own, fromGen, toGen)
	if err != nil {
		return err
	}
	return maskedHDPServe(s, conn, rng, engB, pts, nDummy)
}

func perQueryRemoteCount(s *Pair, hs *hStream, conn transport.Conn, i int, eng compare.Alice) (int, error) {
	peer := hs.peer
	if peer.N == 0 {
		return 0, nil
	}
	count, fromGen := peer.Covered(i, hs.own.Dead)
	gens := len(peer.Count)
	s.led(func(l *Ledger) {
		l.NeighborCounts++
		l.MembershipBits += peer.N
	})
	s.cmpCached.Add(int64(peer.N - peer.Suffix(fromGen)))

	p := hs.own.Enc[i]
	if fromGen == gens {
		// Fully cached: announce the empty-span query for budget parity,
		// run nothing.
		setTag(conn, "hdp.op")
		msg := transport.NewBuilder().PutUint(opPerQuery).PutUint(uint64(gens)).PutUint(uint64(gens))
		return count, transport.SendMsg(conn, msg)
	}
	for g := fromGen; g < gens; g++ {
		fresh := 0
		// A dead or empty generation needs no wire work; record the zero
		// segment so the sweep stays contiguous. The final generation
		// always goes to the wire — its sub-query closes the sweep for the
		// responder's budget parity.
		if peer.Count[g] > 0 || g == gens-1 {
			msg, nCand := perQueryFrame(s, peer, p, g)
			var err error
			if fresh, err = perQueryHDPCount(s, conn, eng, msg, p, nCand); err != nil {
				return 0, err
			}
		}
		count += fresh
		peer.Extend(i, g, g+1, fresh)
	}
	return count, nil
}

func perQueryFrame(s *Pair, peer *PeerGens, p []int64, g int) (*transport.Builder, int) {
	msg := transport.NewBuilder().PutUint(opPerQuery).PutUint(uint64(g)).PutUint(uint64(g + 1))
	nCand := peer.Count[g]
	if s.pruneOn {
		cells, total := s.candidateCells(peer, p, g, g+1)
		usePrune := total < nCand
		msg.PutBool(usePrune)
		if usePrune {
			nCand = total
			spatial.EncodeCells(msg, cells)
		}
	}
	return msg, nCand
}

func perQueryHDPCount(s *Pair, conn transport.Conn, eng compare.Alice, op *transport.Builder, p []int64, nCand int) (int, error) {
	setTag(conn, "hdp.op")
	if err := transport.SendMsg(conn, op); err != nil {
		return 0, err
	}
	return maskedHDPCount(s, conn, eng, p, nCand)
}

// maskedHDPCount runs the driver side of one already-announced region
// sub-query of point p in its reference form: the masked MP + comparison
// phases over the nCand candidate instances the announcement committed to
// (none: no frames), counting the in-range results. eng is the pair's
// Alice-side split-threshold comparator (DistEngines).
func maskedHDPCount(s *Pair, conn transport.Conn, eng compare.Alice, p []int64, nCand int) (int, error) {
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

// maskedHDPServe serves the responder side of maskedHDPCount: the masked
// MP + comparison phases over the given real candidate points plus nDummy
// always-out-of-range padding entries, all freshly permuted together. The
// driver's point never leaves the driver; the responder learns, per its
// own point, whether some driver point is within Eps (Algorithm 4 note:
// "Bob only knows there is a record owned by Alice in the neighborhood").
// eng is the pair's Bob-side split-threshold comparator (DistEngines).
func maskedHDPServe(s *Pair, conn transport.Conn, rng PermSource, eng compare.Bob, pts [][]int64, nDummy int) error {
	cands := permuteCandidates(rng, pts, nDummy)
	total := len(cands)
	if total == 0 {
		return nil
	}
	setTag(conn, "hdp.mp")
	m := s.dim
	xs := s.candidateCoords(cands)
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
