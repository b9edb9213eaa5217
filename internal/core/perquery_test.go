package core

import (
	"fmt"

	"repro/internal/compare"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// The per-query driver of the basic horizontal protocol as it stood before
// the settle step (handshake v11): one wave of region queries per
// expansion step, every query a sweep of per-generation sub-queries, each
// its own op frame + MP round + comparison round. Kept verbatim — apart
// from the names, and from HDPCount's op-frame argument, which
// perQueryHDPCount sends itself — as the oracle the settle differential
// (settle_test.go) runs the same lifecycles through: labels, cached
// segments, every Ledger class and both comparison counters must come out
// equal.

// opPerQuery was OpQuery, op code 1.
const opPerQuery uint64 = 1

// newPerQuerySession is NewHorizontalSession on the per-query driver.
func newPerQuerySession(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, *hStream, error) {
	t, hs, err := newHorizontalSession(conn, cfg, role, points, "horizontal", hBasic)
	if err == nil {
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
	conns := s.Conns
	engA, _, err := s.DistEngines()
	if err != nil {
		return nil, 0, err
	}
	decide := func(w, point, ownCount int) (bool, error) {
		count, err := perQueryRemoteCount(s, hs, conns[w], point, engA)
		if err != nil {
			return false, err
		}
		return ownCount+count >= s.cfg.MinPts, nil
	}
	localRQ := func(i int) []int { return hs.own.RegionQuery(i, s.epsSq) }
	labels, clusters, err := WaveDrive(len(hs.own.Enc), len(conns), localRQ, decide)
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
	return s.HDPServe(conn, rng, engB, pts, nDummy)
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
	return s.HDPCount(conn, eng, p, nCand)
}
