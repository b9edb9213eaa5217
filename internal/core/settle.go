package core

import (
	"errors"
	"fmt"

	"repro/internal/compare"
	"repro/internal/transport"
)

// The settle step of the horizontal shape. Algorithm 4 queries every own
// point at least once, and what a region query asks the peer — the point's
// coordinates against the peer's candidates — does not depend on any
// label. So a driving pass runs in two steps, like the pair shape's
// LockstepCluster: Settle decides, before the walk, every (own point, peer
// generation) sub-query the cross-run cache does not already answer, and
// the walk (dbscan.ClusterCore) then reads a cache that answers every
// query. The enhanced protocol settles its core bits the same way, over
// the same schedule (settleEnhanced).
//
// Settle enumerates the sub-queries in own-point order: for each point the
// generations its cached run does not reach (PeerGens.Covered), ascending
// — exactly the sweep a live query of that point would run, with the same
// candidate cells and the same exhaustive fallback (Pair.SubQuery). A
// point's sub-queries are its row, weighing its candidate instances, and
// the rows go through settleSchedule (lockstep.go), the schedule the pair
// shape and the enhanced protocol share: chunks of whole rows of at most
// chunkBound(cmpBytes) instances, chunk c on worker channel c mod W. Each
// sub-query's count is written into the cache as its generation's count,
// on the calling goroutine, after every worker has returned. Rows, chunks
// and channels are a pure function of the driver's state; the responder is
// told each chunk's content by its op frame and checks it (readSettleOp).
//
// A chunk is one exchange (settleChunk / SettleServe; hdp.go describes its
// frames). The responder permutes and pads every sub-query on its own, so
// the driver can attribute an in-range count to a (point, generation) and
// to nothing finer, and the comparison batch names each instance's row, so
// the grouped uplink's equality classes never span two own points
// (compare/full.go).

// ErrQueryOp reports an op frame of a horizontal pass the responder
// refuses: a settle chunk or a chunk of enhanced core queries that is not
// one an honest driver's schedule produces (readSettleOp, readCoreOp), or
// a done frame reporting a walk no Algorithm 4 run takes.
var ErrQueryOp = errors.New("core: malformed region-query op")

// Settle runs the driver side of the settle step against one peer over the
// pair's worker channels, channel c deciding on engs[c] (DistEngines).
// closeSweeps selects which sub-queries are announced: a two-party session
// (true) announces every non-empty generation, with or without
// candidates, plus the last generation — the sub-queries its responder's
// index accounting has always seen; a mesh edge (false) announces only
// those with candidates. Every generation a point's sweep passes is cached
// either way.
func (s *Pair) Settle(own *OwnGens, peer *PeerGens, engs []compare.Alice, closeSweeps bool) error {
	return s.settle(own, peer, len(s.Conns), chunkBound(engs[0].FrameBytes()), closeSweeps,
		func(ch int, chunk []SubQuery) ([]int, error) {
			return s.settleChunk(ch, engs[ch], own, chunk)
		})
}

// settle is Settle with the schedule's inputs spelled out: w channels, at
// most bound instances a chunk, and run deciding one chunk on channel ch
// (one count per sub-query).
func (s *Pair) settle(own *OwnGens, peer *PeerGens, w, bound int, closeSweeps bool,
	run func(ch int, chunk []SubQuery) ([]int, error)) error {
	gens := len(peer.Count)
	peer.pre = make([]int, len(own.Enc))
	if peer.N == 0 {
		// Nothing to ask, and the walk asks nothing either.
		return nil
	}
	rows := make([][]SubQuery, len(own.Enc))
	for i, p := range own.Enc {
		_, from := peer.Covered(i)
		peer.pre[i] = from
		for g := from; g < gens; g++ {
			if closeSweeps && peer.Count[g] == 0 && g != gens-1 {
				continue
			}
			if q := s.SubQuery(peer, p, i, g); closeSweeps || q.NCand > 0 {
				rows[i] = append(rows[i], q)
			}
		}
	}
	chunks, counts, err := settleSchedule(rows, func(row []SubQuery) (n int) {
		for _, q := range row {
			n += q.NCand
		}
		return n
	}, w, bound, run)
	if err != nil {
		return err
	}

	// One count per generation of every sweep, announced or not: a
	// generation that was not asked holds no candidate, so it counts zero —
	// overwriting what a stale count past a hole still claimed.
	for i, from := range peer.pre {
		for g := from; g < gens; g++ {
			peer.Record(i, g, 0)
		}
	}
	for c, chunk := range chunks {
		for u, q := range chunk {
			peer.Record(q.Point, q.Gen, counts[c][u])
		}
	}
	return nil
}

// settleChunk runs the driver side of one chunk on worker channel ch — its
// op frame, then its exchange (HDPCount) — and returns the in-range count
// of each of its sub-queries.
func (s *Pair) settleChunk(ch int, eng compare.Alice, own *OwnGens, chunk []SubQuery) ([]int, error) {
	conn := s.Conns[ch]
	setTag(conn, "hdp.op")
	msg := transport.NewBuilder().PutUint(OpSettle).PutUint(uint64(len(chunk)))
	for _, q := range chunk {
		msg.PutUint(uint64(q.Point)).PutUint(uint64(q.Gen))
		s.Announce(msg, q)
	}
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, err
	}
	return s.HDPCount(ch, eng, own.Enc, chunk)
}

// servedQuery is one sub-query of a chunk as its responder resolved it.
type servedQuery struct {
	point  int
	pts    [][]int64 // real candidates, generation order
	nDummy int
}

// readSettleOp parses a settle chunk's op frame (after its op code) and
// resolves every sub-query's candidates. The frame is whatever the driver
// chose to send, so before anything is allocated for or encrypted on its
// behalf it is held to what an honest schedule produces: at least one and
// at most driverN × live-generations sub-queries (and no more than the
// frame has bytes for), (point, generation) strictly ascending, every
// point one of the driver's driverN live points and every generation live,
// and — unless the chunk is a single row — no more than bound candidate
// instances in all.
func (s *Pair) readSettleOp(r *transport.Reader, own *OwnGens, driverN, bound int) ([]servedQuery, error) {
	n := r.Uint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	_, live := own.Window()
	if n < 1 || n > uint64(driverN)*uint64(live) || n > uint64(r.Remaining()/2) {
		return nil, fmt.Errorf("%w: chunk of %d sub-queries for %d points × %d live generations", ErrQueryOp, n, driverN, live)
	}
	subs := make([]servedQuery, 0, n)
	prevPoint, prevGen, total := -1, -1, 0
	for u := 0; u < int(n); u++ {
		point, gen := r.Uint(), r.Uint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if point >= uint64(driverN) {
			return nil, fmt.Errorf("%w: sub-query %d names point %d of %d", ErrQueryOp, u, point, driverN)
		}
		// Dead generations are refused, not served: Span clamps a dead start
		// to the window's edge, so one would answer with live points.
		if gen < uint64(own.Dead) || gen >= uint64(own.Gens()) {
			return nil, fmt.Errorf("%w: sub-query %d names generation %d of %d (%d dead)", ErrQueryOp, u, gen, own.Gens(), own.Dead)
		}
		q := servedQuery{point: int(point)}
		g := int(gen)
		if q.point < prevPoint || (q.point == prevPoint && g <= prevGen) {
			return nil, fmt.Errorf("%w: sub-query %d (point %d, generation %d) does not ascend", ErrQueryOp, u, q.point, g)
		}
		var err error
		if q.pts, q.nDummy, err = s.ReadPrunedOp(r, own, g, g+1); err != nil {
			return nil, fmt.Errorf("%w: sub-query %d: %w", ErrQueryOp, u, err)
		}
		prevPoint, prevGen = q.point, g
		total += len(q.pts) + q.nDummy
		subs = append(subs, q)
	}
	if total > bound && subs[0].point != prevPoint {
		return nil, fmt.Errorf("%w: chunk of %d candidates over several rows, bound %d", ErrQueryOp, total, bound)
	}
	return subs, nil
}

// SettleServe answers one settle chunk on worker channel ch, whose op code
// Serve has consumed: the responder side of Settle. own is our generation
// table, peer our view of the driver (its live point count bounds the rows
// it may name), eng channel ch's Bob-side split-threshold comparator
// (DistEngines).
func (s *Pair) SettleServe(ch int, rng PermSource, eng compare.Bob, own *OwnGens, peer *PeerGens, r *transport.Reader) error {
	subs, err := s.readSettleOp(r, own, peer.N, chunkBound(eng.FrameBytes()))
	if err != nil {
		return err
	}
	// Every sub-query draws its own permutation over its own padding; a
	// row's sub-queries then share the row's slot groups.
	var rows [][][]int64
	last := -1
	for _, q := range subs {
		sub := permuteCandidates(rng, q.pts, q.nDummy)
		if len(sub) == 0 {
			continue
		}
		if q.point != last {
			rows, last = append(rows, nil), q.point
		}
		rows[len(rows)-1] = append(rows[len(rows)-1], sub...)
	}
	return s.HDPServe(ch, eng, rows)
}
