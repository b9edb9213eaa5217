package core

import (
	"fmt"

	"repro/internal/compare"
	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// Op codes for the driver→responder control channel of the horizontal
// protocols. The driver announces each region query (or enhanced core
// query) before the corresponding sub-protocols begin; opDone, sent on
// every worker channel, releases the responder at the end of a pass.
const (
	OpQuery uint64 = 1 // exported: mesh edges carry the same HDP op frames
	opDone  uint64 = 2
	opCore  uint64 = 3
)

// hFamily selects the horizontal-family variant a session runs.
type hFamily int

const (
	hBasic    hFamily = iota // §4.2, Algorithms 3–4 (HDP region counts)
	hEnhanced                // §5, Algorithms 7–8 (core-point bits)
)

// hStream is the horizontal family's mutable session state: the two-party
// instance of the generation tables (gens.go) — one own side, one peer.
type hStream struct {
	own  *OwnGens
	peer *PeerGens
}

// HorizontalAlice runs the §4.2 protocol (Algorithms 3–4) as Alice over
// her complete records. It returns cluster labels for Alice's own points;
// the peer must concurrently run HorizontalBob.
//
// Per the paper, each party numbers its clusters locally: Alice's pass
// expands clusters only through her own points (the peer's points
// contribute to density counts but not to connectivity), and the second
// pass does the same for Bob.
//
// This is the one-shot form — one session, one run. Long-lived serving
// uses NewHorizontalSession and calls Run repeatedly; streaming arrival
// uses Session.Append between runs.
func HorizontalAlice(conn transport.Conn, cfg Config, points [][]float64) (*Result, error) {
	return runOneShot(NewHorizontalSession(conn, cfg, RoleAlice, points))
}

// HorizontalBob is Alice's counterpart; see HorizontalAlice.
func HorizontalBob(conn transport.Conn, cfg Config, points [][]float64) (*Result, error) {
	return runOneShot(NewHorizontalSession(conn, cfg, RoleBob, points))
}

// NewHorizontalSession establishes a long-lived §4.2 session: keys,
// handshake, and (under grid pruning) the candidate-index exchange happen
// here, once; each subsequent Run executes one two-pass clustering over
// the established state, and Append absorbs new points at incremental
// cost (only delta index cells cross the wire, and re-clustering reuses
// every cached region-count prefix).
func NewHorizontalSession(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, error) {
	return newHorizontalSession(conn, cfg, role, points, "horizontal", hBasic)
}

// NewEnhancedHorizontalSession is NewHorizontalSession for the §5
// enhanced protocol.
func NewEnhancedHorizontalSession(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, error) {
	return newHorizontalSession(conn, cfg, role, points, "enhanced-horizontal", hEnhanced)
}

// newHorizontalSession is the shared session establishment of the
// horizontal family.
func newHorizontalSession(conn transport.Conn, cfg Config, role Role, points [][]float64, proto string, fam hFamily) (*Session, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	own, err := NewOwnGens(cfg, points)
	if err != nil {
		return nil, err
	}
	s, peer, err := newHPair(conn, cfg, role, proto, own, fam == hBasic)
	if err != nil {
		return nil, err
	}
	hs := &hStream{own: own, peer: peer}
	t := newSession(conn, s, proto)
	t.runOnce = func() (*Result, error) { return horizontalRunOnce(t, hs, fam) }
	t.appendInit = func(values [][]float64, owners [][]partition.Owner) (bool, error) {
		return horizontalAppendInit(t, hs, values, owners)
	}
	t.appendServe = func(r *transport.Reader) error { return horizontalAppendServe(t, hs, r) }
	t.window = own.Window
	// An expiry tombstones the own generations (index included), husks the
	// peer's dead directories (their cells no longer answer candidate
	// queries), and compacts the caches.
	t.expire = func(gens int) error {
		from := own.Dead
		removed, err := own.Expire(gens)
		if err == nil {
			peer.Expire(from, gens, removed)
		}
		return err
	}
	t.retractInit = func(ids []int) (bool, error) { return horizontalRetractInit(t, hs, ids) }
	t.retractServe = func(r *transport.Reader) error { return horizontalRetractServe(t, hs, r) }
	return t, nil
}

// NewPair establishes one HDP edge over a party's own generation table:
// worker channels, keys and the v11 handshake (proto names the protocol;
// role breaks the symmetry — it decides who sends first in every frame
// swap, so a mesh maps the lower party index to RoleAlice), the common
// record dimension, the masked-product packers, and — under grid pruning
// — the candidate-index exchange. cfg must be normalised. The returned
// PeerGens is this edge's view of the peer.
func NewPair(conn transport.Conn, cfg Config, role Role, proto string, own *OwnGens) (*Pair, *PeerGens, error) {
	return newHPair(conn, cfg, role, proto, own, true)
}

// newHPair is NewPair for the whole horizontal shape; hdp says whether the
// edge will run HDP's masked products (the enhanced family runs none, and
// must not fail on packers it never uses).
func newHPair(conn transport.Conn, cfg Config, role Role, proto string, own *OwnGens, hdp bool) (*Pair, *PeerGens, error) {
	s, peer, err := establish(conn, cfg, role, proto, own.dim, len(own.Enc))
	if err != nil {
		return nil, nil, err
	}
	if peer.Dim != own.dim {
		return nil, nil, fmt.Errorf("%w: record dimension %d vs %d", ErrHandshake, own.dim, peer.Dim)
	}
	if peer.Count == 0 {
		return nil, nil, fmt.Errorf("core: peer holds no points")
	}
	if err := s.setDimension(own.dim); err != nil {
		return nil, nil, err
	}
	if hdp {
		if err := s.productPackers(); err != nil {
			return nil, nil, fmt.Errorf("core: product packer: %w", err)
		}
	}
	pg := newPeerGens(peer.Count)
	if s.pruneOn {
		if err := s.exchangeIndex(s.Conns[0], own, pg); err != nil {
			return nil, nil, err
		}
	}
	return s, pg, nil
}

// horizontalRetractInit is the initiating side of one horizontal-family
// retraction: announce the point tombstone of our own retracted live
// indices, receive the peer's (possibly empty) tombstone of its own
// points in return, and apply both. Invalid ids fail locally before any
// frame is sent, so they do not poison the session.
func horizontalRetractInit(t *Session, hs *hStream, ids []int) (sent bool, err error) {
	if sent, err := t.announceRetract(ids, len(hs.own.Enc)); err != nil {
		return sent, err
	}
	r, err := transport.RecvMsg(t.s.Conns[0])
	if err != nil {
		return true, fmt.Errorf("core: session retract reply: %w", err)
	}
	peerTomb, err := spatial.DecodePointTombstone(r, hs.peer.N)
	if err != nil {
		return true, fmt.Errorf("core: session retract reply: %w", err)
	}
	return true, finishHRetract(t, hs, ids, peerTomb.IDs)
}

// horizontalRetractServe is the serving side: validate the announced
// tombstone against the peer's live count, ask the session's retract
// source for our own retraction ids, reply with them, and apply both.
func horizontalRetractServe(t *Session, hs *hStream, r *transport.Reader) error {
	peerTomb, err := spatial.DecodePointTombstone(r, hs.peer.N)
	if err != nil {
		return fmt.Errorf("core: session retract op: %w", err)
	}
	ownIDs, err := t.retractSource()(RetractRequest{PeerIDs: peerTomb.IDs})
	if err != nil {
		return fmt.Errorf("core: retract source: %w", err)
	}
	if err := spatial.ValidateRetractIDs(ownIDs, len(hs.own.Enc)); err != nil {
		return fmt.Errorf("core: retract source: %w", err)
	}
	if err := t.sendOp(spatial.PointTombstone{IDs: ownIDs}.Encode(transport.NewBuilder())); err != nil {
		return fmt.Errorf("core: session retract reply: %w", err)
	}
	return finishHRetract(t, hs, ownIDs, peerTomb.IDs)
}

// finishHRetract runs the symmetric tail of a retraction on either side:
// mask the retracted own points inside the index (their padded cells
// keep answering as if they were dummies, so per-query wire sizes never
// change), compact the stream state, and invalidate every cache entry a
// retracted point touched. The Ledger records one IndexRetractions entry
// per retracted point on both sides — the only disclosure a retraction
// makes.
func finishHRetract(t *Session, hs *hStream, ownIDs, peerIDs []int) error {
	if err := hs.own.Retract(ownIDs); err != nil {
		return err
	}
	hs.peer.Retract(ownIDs, peerIDs)
	t.s.led(func(l *Ledger) { l.IndexRetractions += len(ownIDs) + len(peerIDs) })
	return nil
}

// horizontalAppendInit is the initiating side of one horizontal-family
// append: announce our batch size, learn the peer's, and (under pruning)
// swap index deltas. The batches themselves never cross the wire.
func horizontalAppendInit(t *Session, hs *hStream, values [][]float64, owners [][]partition.Owner) (sent bool, err error) {
	if owners != nil {
		return false, fmt.Errorf("core: %s protocol takes Append, not AppendOwned", t.proto)
	}
	batch, err := hs.own.Encode(values)
	if err != nil {
		return false, err
	}
	if err := t.sendOp(transport.NewBuilder().PutUint(sessOpAppend).PutUint(uint64(len(batch)))); err != nil {
		return true, fmt.Errorf("core: session append op: %w", err)
	}
	r, err := transport.RecvMsg(t.s.Conns[0])
	if err != nil {
		return true, fmt.Errorf("core: session append reply: %w", err)
	}
	peerCount := int(r.Uint())
	if err := r.Err(); err != nil {
		return true, err
	}
	if peerCount < 0 {
		return true, fmt.Errorf("core: peer append count %d", peerCount)
	}
	return true, finishHAppend(t, hs, batch, peerCount)
}

// horizontalAppendServe is the serving side: the peer announced an
// append; ask the session's append source for our own batch, reply with
// its size, and complete the index-delta exchange.
func horizontalAppendServe(t *Session, hs *hStream, r *transport.Reader) error {
	peerCount := int(r.Uint())
	if err := r.Err(); err != nil {
		return err
	}
	if peerCount < 0 {
		return fmt.Errorf("core: peer append count %d", peerCount)
	}
	values, err := t.appendSource()(AppendRequest{PeerCount: peerCount})
	if err != nil {
		return fmt.Errorf("core: append source: %w", err)
	}
	batch, err := hs.own.Encode(values)
	if err != nil {
		return err
	}
	if err := t.sendOp(transport.NewBuilder().PutUint(uint64(len(batch)))); err != nil {
		return fmt.Errorf("core: session append reply: %w", err)
	}
	return finishHAppend(t, hs, batch, peerCount)
}

// finishHAppend runs the symmetric tail of an append on either side:
// own-side bookkeeping, index-delta swap under pruning, then the peer's.
func finishHAppend(t *Session, hs *hStream, batch [][]int64, peerCount int) error {
	delta, err := hs.own.Append(batch)
	if err != nil {
		return err
	}
	if t.s.pruneOn {
		if err := t.s.appendIndexDelta(t.s.Conns[0], hs.own.Gens(), delta, hs.peer); err != nil {
			return err
		}
	}
	hs.peer.Append(peerCount)
	return nil
}

// horizontalRunOnce is one two-pass execution: Alice drives pass 1 while
// Bob responds, then the roles swap ("Party B DOES: repeats step 1 to 12
// by replacing Alice for Bob" — Algorithm 3).
func horizontalRunOnce(t *Session, hs *hStream, fam hFamily) (*Result, error) {
	s := t.s
	var labels []int
	var clusters int
	var err error
	if s.role == RoleAlice {
		if labels, clusters, err = hPassDriver(s, hs, fam); err != nil {
			return nil, err
		}
		if err := hPassResponder(s, hs, fam); err != nil {
			return nil, err
		}
	} else {
		if err := hPassResponder(s, hs, fam); err != nil {
			return nil, err
		}
		if labels, clusters, err = hPassDriver(s, hs, fam); err != nil {
			return nil, err
		}
	}
	return t.result(labels, clusters), nil
}

// hPassDriver is the driving pass of the horizontal family (Algorithm 3/4,
// and Algorithm 7/8 for the enhanced protocol — the control flow is the
// same, only the core decision differs): WaveDrive over the session's
// worker channels, worker slot w's decision running over channel w.
func hPassDriver(s *Pair, hs *hStream, fam hFamily) ([]int, int, error) {
	conns := s.Conns
	var decide func(w, point, ownCount int) (bool, error)
	var opTag string
	switch fam {
	case hBasic:
		engA, _, err := s.DistEngines()
		if err != nil {
			return nil, 0, err
		}
		opTag = "hdp.op"
		decide = func(w, point, ownCount int) (bool, error) {
			count, err := remoteCount(s, hs, conns[w], point, engA)
			if err != nil {
				return false, err
			}
			return ownCount+count >= s.cfg.MinPts, nil
		}
	case hEnhanced:
		shareA, _, finalA, _, err := s.enhancedEngines()
		if err != nil {
			return nil, 0, err
		}
		opTag = "enh.op"
		decide = func(w, point, ownCount int) (bool, error) {
			return enhancedIsCore(s, hs, conns[w], point, ownCount, shareA, finalA)
		}
	}
	localRQ := func(i int) []int { return hs.own.RegionQuery(i, s.epsSq) }
	labels, clusters, err := WaveDrive(len(hs.own.Enc), len(conns), localRQ, decide)
	if err != nil {
		return nil, 0, err
	}
	return labels, clusters, s.SendDone(opTag)
}

// hPassResponder serves a driving pass across the session's worker
// channels, one responder worker per channel.
func hPassResponder(s *Pair, hs *hStream, fam hFamily) error {
	switch fam {
	case hBasic:
		_, engB, err := s.DistEngines()
		if err != nil {
			return err
		}
		return s.Serve("hdp.op", OpQuery, func(conn transport.Conn, rng PermSource, r *transport.Reader) error {
			return serveBasicQuery(s, conn, rng, engB, hs.own, r)
		})
	case hEnhanced:
		_, shareB, _, finalB, err := s.enhancedEngines()
		if err != nil {
			return err
		}
		return s.Serve("enh.op", opCore, func(conn transport.Conn, rng PermSource, r *transport.Reader) error {
			return serveEnhancedCore(s, conn, rng, shareB, finalB, hs.own, r)
		})
	}
	return fmt.Errorf("core: unknown horizontal family %d", fam)
}

// serveBasicQuery answers one already-announced HDP region sub-query.
// The op frame opens with the driver's generation span [fromGen, toGen):
// the cryptographic phases cover only our generations in the span — the
// driver's cache already answers everything below it, and a sliding-
// window driver sweeps one sub-query per generation so its cached
// segments align with generation boundaries. The query-level disclosure
// budget (DotProducts over the full own set, matching what a fresh
// session's exhaustive accounting would record) fires once per logical
// query, on the sub-query that closes the sweep (toGen == gens) — every
// sweep ends there, including fully-cached ones whose single parity
// frame carries an empty span and no crypto at all.
func serveBasicQuery(s *Pair, conn transport.Conn, rng PermSource, engB compare.Bob, own *OwnGens, r *transport.Reader) error {
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

// remoteCount counts the peer's points within Eps of our point i via HDP
// (seedsB := SetOfPointsOfBobPermutation.regionQuery — Algorithm 4 line 3).
//
// The cross-run cache splits the query at a generation watermark: the
// count over the peer's live generations [dead, fromGen) comes from
// previous runs of this session (distances are immutable, so the cached
// segments are permanently exact for the ranges they cover), and the
// uncovered tail is swept one generation per sub-query, each caching its
// own [g, g+1) segment. Per-generation segments are what make the cache
// survive a sliding window: an expiry drops exactly the dead
// generations' segments and every survivor stays contiguous from the new
// window edge — a single suffix-wide segment would straddle every expiry
// boundary and die with it. Under grid pruning each sub-query announces
// its candidate cells out of the peer's directory for that generation
// and runs over their padded occupancy; when padding would make the
// candidate set at least as large as the generation's exhaustive count,
// the sub-query falls back to the exhaustive generation (flagged on the
// op frame), so a pruned sweep never compares more than an unpruned one.
// Every sweep ends with a sub-query whose span closes at the last
// generation — an empty-span parity frame when everything is cached — so
// the responder's query-level accounting, and with it the Ledger budget,
// stays identical to a fresh session's.
func remoteCount(s *Pair, hs *hStream, conn transport.Conn, i int, eng compare.Alice) (int, error) {
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
		msg := transport.NewBuilder().PutUint(OpQuery).PutUint(uint64(gens)).PutUint(uint64(gens))
		return count, transport.SendMsg(conn, msg)
	}
	for g := fromGen; g < gens; g++ {
		fresh := 0
		// A dead or empty generation needs no wire work; record the zero
		// segment so the sweep stays contiguous. The final generation
		// always goes to the wire — its sub-query closes the sweep for the
		// responder's budget parity.
		if peer.Count[g] > 0 || g == gens-1 {
			msg, nCand := s.QueryFrame(peer, p, g)
			var err error
			if fresh, err = s.HDPCount(conn, eng, msg, p, nCand); err != nil {
				return 0, err
			}
		}
		count += fresh
		peer.Extend(i, g, g+1, fresh)
	}
	return count, nil
}
