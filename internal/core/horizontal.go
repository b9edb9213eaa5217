package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dbscan"
	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// Op codes for the driver→responder control channel of the horizontal
// protocols. The driver announces each settle chunk — region sub-queries
// (OpSettle) or enhanced core queries (opCore) — before its sub-protocols
// begin; opDone, sent on every worker channel, releases the responder at
// the end of a pass. Code 1 was the per-query region-query op of handshake
// ≤ v11; up to v12, opCore announced one core query.
const (
	opDone   uint64 = 2
	opCore   uint64 = 3
	OpSettle uint64 = 4 // exported: mesh edges serve the same settle chunks
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
// handshake, and the candidate-index exchange happen here, once; each
// subsequent Run executes one two-pass clustering over the established
// state, and Append absorbs new points at incremental
// cost (only delta index cells cross the wire, and re-clustering reuses
// every cached region-count prefix).
func NewHorizontalSession(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, error) {
	t, _, err := newHorizontalSession(conn, cfg, role, points, "horizontal", hBasic)
	return t, err
}

// NewEnhancedHorizontalSession is NewHorizontalSession for the §5
// enhanced protocol.
func NewEnhancedHorizontalSession(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, error) {
	t, _, err := newHorizontalSession(conn, cfg, role, points, "enhanced-horizontal", hEnhanced)
	return t, err
}

// newHorizontalSession is the shared session establishment of the
// horizontal family; it also hands back the session's generation tables.
func newHorizontalSession(conn transport.Conn, cfg Config, role Role, points [][]float64, proto string, fam hFamily) (*Session, *hStream, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	own, err := NewOwnGens(cfg, points)
	if err != nil {
		return nil, nil, err
	}
	keys, err := DrawKeySet(cfg)
	if err != nil {
		return nil, nil, err
	}
	s, peer, err := NewPair(conn, cfg, keys, role, proto, own)
	if err != nil {
		return nil, nil, err
	}
	hs := &hStream{own: own, peer: peer}
	t := newSession(conn, s, proto)
	t.runOnce = func() (*Result, error) { return horizontalRunOnce(t, hs, fam) }
	// An append's index payload is the GridDelta of the new generation:
	// only the cells the batch touched cross the wire.
	t.appends = appendHooks{
		live: func() int { return peer.N },
		encode: func(values [][]float64, _ [][]partition.Owner) ([][]int64, error) {
			return own.Encode(values)
		},
		put: func(msg *transport.Builder, batch [][]int64, _ [][]partition.Owner) error {
			return own.AppendDelta(msg, batch)
		},
		absorb: func(r *transport.Reader, _ [][]int64, _ [][]partition.Owner, peerCount int) error {
			return s.ReadIndexDelta(r, peer, peerCount)
		},
	}
	t.window = own.Window
	// An expiry tombstones the own generations (index included), husks the
	// peer's dead directories (their cells no longer answer candidate
	// queries), and compacts the caches.
	t.expire = func(gens int) error {
		removed, err := own.Expire(gens)
		if err == nil {
			peer.Expire(gens, removed)
		}
		return err
	}
	t.retractInit = func(ids []int) (bool, error) { return horizontalRetractInit(t, hs, ids) }
	t.retractServe = func(r *transport.Reader) error { return horizontalRetractServe(t, hs, r) }
	return t, hs, nil
}

// NewPair establishes one HDP edge over a party's own generation table
// and its key set (DrawKeySet; a mesh party hands the same set to every
// edge): worker channels, the handshake at handshakeVersion (proto names
// the protocol; role names the side, and the handshake refuses two
// parties of one role, so a mesh maps the lower party index to RoleAlice),
// the common record dimension, the row-dot packers, and the
// candidate-index exchange (on the one-cell grid when not pruning;
// CandidateGrid). cfg must be normalised. The returned PeerGens is this
// edge's view of the peer.
func NewPair(conn transport.Conn, cfg Config, keys KeySet, role Role, proto string, own *OwnGens) (*Pair, *PeerGens, error) {
	s, peer, err := establish(conn, cfg, keys, role, proto, own.dim, len(own.Enc))
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
	// The enhanced family runs no row-dot exchange, but its share packer's
	// slots are wider, so a key that fits those fits these.
	if err := s.rowDotPackers(); err != nil {
		return nil, nil, fmt.Errorf("core: row-dot packer: %w", err)
	}
	pg := newPeerGens(peer.Count)
	if err := s.exchangeIndex(own, pg); err != nil {
		return nil, nil, err
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
// same, only the core decision differs), in two steps. Settle, over the W
// worker channels: the basic protocol decides every region sub-query the
// count cache does not answer (Pair.Settle), the enhanced protocol every
// own point's core bit (settleEnhanced). Walk: dbscan.ClusterCore over our
// own points, reading the peer's half of each core test from what was
// settled — it touches no channel.
func hPassDriver(s *Pair, hs *hStream, fam hFamily) ([]int, int, error) {
	n := len(hs.own.Enc)
	localRQ := func(i int) []int { return hs.own.RegionQuery(i, s.epsSq) }
	switch fam {
	case hBasic:
		engA, _, err := s.DistEngines()
		if err != nil {
			return nil, 0, err
		}
		if err := s.Settle(hs.own, hs.peer, engA, true); err != nil {
			return nil, 0, err
		}
		walked := 0
		labels, clusters := dbscan.ClusterCore(n, localRQ, func(i int, nbrs []int) bool {
			if hs.peer.N == 0 {
				// Nothing to ask: no query, no budget, nothing to report.
				return len(nbrs) >= s.cfg.MinPts
			}
			walked++
			return len(nbrs)+remoteCount(s, hs, i) >= s.cfg.MinPts
		})
		return labels, clusters, s.SendDone("hdp.op", uint64(walked))
	case hEnhanced:
		rqs := make([][]int, n)
		for i := range rqs {
			rqs[i] = localRQ(i)
		}
		cores, err := settleEnhanced(s, hs, rqs)
		if err != nil {
			return nil, 0, err
		}
		queried := make([]bool, n)
		labels, clusters := dbscan.ClusterCore(n, func(i int) []int { return rqs[i] }, func(i int, _ []int) bool {
			// Algorithm 4 queries a point again only if it is not core (a
			// core point's neighbours are all labelled by its query), so a
			// re-query counts as cached exactly when the cache answers it
			// (enhCached). It never reaches the wire: a first query that did
			// left a valid entry behind.
			if queried[i] {
				if _, ok := enhCached(hs, i); ok {
					s.cmpCached.Add(1)
				}
			}
			queried[i] = true
			return cores[i]
		})
		return labels, clusters, s.SendDone("enh.op")
	}
	return nil, 0, fmt.Errorf("core: unknown horizontal family %d", fam)
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
		return s.Serve("hdp.op", map[uint64]OpServer{
			OpSettle: func(ch int, rng PermSource, r *transport.Reader) error {
				return s.SettleServe(ch, rng, engB[ch], hs.own, hs.peer, r)
			},
			opDone: func(ch int, _ PermSource, r *transport.Reader) error {
				if ch != 0 {
					return nil
				}
				return serveWalked(s, hs, r)
			},
		})
	case hEnhanced:
		_, shareB, _, finalB, err := s.enhancedEngines()
		if err != nil {
			return err
		}
		// An honest driver asks about each of its live points at most once a
		// pass: one bitmap across the W workers holds it to that.
		seen := make([]atomic.Bool, hs.peer.N)
		return s.Serve("enh.op", map[uint64]OpServer{
			opCore: func(ch int, rng PermSource, r *transport.Reader) error {
				return s.serveCoreChunk(ch, rng, shareB[ch], finalB[ch], hs.own, seen, r)
			},
		})
	}
	return fmt.Errorf("core: unknown horizontal family %d", fam)
}

// serveWalked closes a basic pass: channel 0's done frame reports how many
// region queries the driver's walk asked. Their sub-queries were served by
// the settle step;
// what the count is for is the query-level disclosure budget — DotProducts
// over the full own set per logical query, what a fresh session's
// exhaustive accounting records, re-queries of a point Algorithm 4 queues
// twice included. Algorithm 4 asks about a point once when it is first
// reached and once more per cluster that absorbs it as a seed, so a count
// above n·(n+1) is no walk's.
func serveWalked(s *Pair, hs *hStream, r *transport.Reader) error {
	walked := r.Uint()
	if err := r.Err(); err != nil {
		return err
	}
	if n := uint64(hs.peer.N); walked > n*(n+1) {
		return fmt.Errorf("%w: a walk of %d region queries over %d points", ErrQueryOp, walked, n)
	}
	s.led(func(l *Ledger) { l.DotProducts += int(walked) * len(hs.own.Enc) })
	return nil
}

// remoteCount answers the walk's region query of our point i — the peer's
// points within Eps of it (seedsB := SetOfPointsOfBobPermutation
// .regionQuery, Algorithm 4 line 3) — from the count cache, which this
// pass's Settle completed: one count per peer generation, the ones it did
// not already hold decided over HDP. Distances are immutable, so a count
// is permanently exact for its generation, and per-generation counts are
// what make the cache survive a sliding window: an expiry drops exactly
// the dead generations' counts and every survivor stays contiguous from
// the new window edge. The query is still a query: it records its
// decision-level budget and counts as cached what the cache held before
// this run's Settle (all of it, from the point's second query on), and
// the caller tallies it for the responder (serveWalked).
func remoteCount(s *Pair, hs *hStream, i int) int {
	peer := hs.peer
	count, cached := peer.Settled(i)
	s.led(func(l *Ledger) {
		l.NeighborCounts++
		l.MembershipBits += peer.N
	})
	s.cmpCached.Add(int64(cached))
	return count
}
