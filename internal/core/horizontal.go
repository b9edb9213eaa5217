package core

import (
	"fmt"
	"sync"

	"repro/internal/compare"
	"repro/internal/fixedpoint"
	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// Op codes for the driver→responder control channel of the horizontal
// protocols. The driver announces each region query (or enhanced core
// query) before the corresponding sub-protocols begin; opDone, sent on
// every worker channel, releases the responder at the end of a pass.
const (
	opQuery uint64 = 1
	opDone  uint64 = 2
	opCore  uint64 = 3
)

// hFamily selects the horizontal-family variant a session runs.
type hFamily int

const (
	hBasic    hFamily = iota // §4.2, Algorithms 3–4 (HDP region counts)
	hEnhanced                // §5, Algorithms 7–8 (core-point bits)
)

// hStream is the horizontal family's mutable session state: both parties'
// generation structure (appends extend it, expiries tombstone its oldest
// prefix) plus the cross-run comparison caches that make incremental runs
// cheap.
//
// Cache soundness rests on distance immutability and count monotonicity:
// appends only add points, so (a) the number of peer points within Eps of
// an unchanged point, restricted to an unchanged peer generation range,
// never changes — the hdp CountCache's per-run segments are permanently
// valid for the ranges they cover — and (b) neighbour counts only grow
// under appends, so a core bit that was true stays true, while a false
// bit is reusable only while both datasets are unchanged (enhCache
// entries carry the sizes they were decided under). Expiry breaks the
// monotone direction — removing points can flip a true core bit false —
// so Expire clears enhCache entirely, drops hdp segments that include
// dead generations, and remaps both sides' point indices onto the
// compacted live window.
type hStream struct {
	fam hFamily
	enc [][]int64 // own live points, window generations, append order

	dead        int   // expired generations (both sides expire in lockstep)
	ownGenStart []int // per-generation start in enc (dead gens clamped to 0)
	peerGenCnt  []int // per-generation peer point counts (dead gens zeroed)
	nPeer       int   // live peer count (Σ peerGenCnt)

	// mu guards the caches: a wave's workers decide distinct points
	// concurrently but share the maps.
	mu       sync.Mutex
	hdp      *CountCache
	enhCache map[int]enhEntry
}

// enhEntry caches one driver point's core bit plus the dataset sizes it
// was decided under (see hStream's monotonicity note).
type enhEntry struct {
	core  bool
	ownN  int
	peerN int
}

func newHStream(fam hFamily, enc [][]int64, nPeer int) *hStream {
	return &hStream{
		fam:         fam,
		enc:         enc,
		ownGenStart: []int{0},
		peerGenCnt:  []int{nPeer},
		nPeer:       nPeer,
		hdp:         NewCountCache(),
		enhCache:    make(map[int]enhEntry),
	}
}

// peerGens reports the number of peer generations, dead ones included —
// generation numbering is absolute for the session's life.
func (hs *hStream) peerGens() int { return len(hs.peerGenCnt) }

// peerSuffix counts the live peer points in generations [from, …).
func (hs *hStream) peerSuffix(from int) int {
	n := 0
	for g := from; g < len(hs.peerGenCnt); g++ {
		n += hs.peerGenCnt[g]
	}
	return n
}

// ownSpanEnd returns the enc index one past generation to-1 — the end of
// the own-point span [ownGenStart[from], ownSpanEnd(to)).
func (hs *hStream) ownSpanEnd(to int) int {
	if to >= len(hs.ownGenStart) {
		return len(hs.enc)
	}
	return hs.ownGenStart[to]
}

// appendLocal absorbs one append on this side's bookkeeping.
func (hs *hStream) appendLocal(ownBatch [][]int64, peerCount int) {
	hs.ownGenStart = append(hs.ownGenStart, len(hs.enc))
	hs.enc = append(hs.enc, ownBatch...)
	hs.peerGenCnt = append(hs.peerGenCnt, peerCount)
	hs.nPeer += peerCount
}

// expireLocal absorbs one expiry on this side's bookkeeping: the gens
// oldest live generations die. Dead generations keep their slots (the
// numbering is absolute) but answer as empty; the surviving own points
// compact to the front of enc and every cache is invalidated or remapped
// accordingly.
func (hs *hStream) expireLocal(gens int) {
	end := hs.dead + gens
	for g := hs.dead; g < end; g++ {
		hs.nPeer -= hs.peerGenCnt[g]
		hs.peerGenCnt[g] = 0
	}
	ownRemoved := len(hs.enc)
	if end < len(hs.ownGenStart) {
		ownRemoved = hs.ownGenStart[end]
	}
	hs.enc = hs.enc[ownRemoved:]
	for g := range hs.ownGenStart {
		if g < end {
			hs.ownGenStart[g] = 0
		} else {
			hs.ownGenStart[g] -= ownRemoved
		}
	}
	hs.dead = end
	hs.mu.Lock()
	hs.hdp.Remap(ownRemoved)
	// Expiry can flip a true core bit false (counts shrink) and a false
	// bit's recorded sizes no longer describe the window: clear it all.
	hs.enhCache = make(map[int]enhEntry)
	hs.mu.Unlock()
}

// ownExpired reports how many own points the gens oldest live
// generations hold — what expireLocal would compact away.
func (hs *hStream) ownExpired(gens int) int {
	end := hs.dead + gens
	if end < len(hs.ownGenStart) {
		return hs.ownGenStart[end]
	}
	return len(hs.enc)
}

// retractLocal absorbs one retraction on this side's bookkeeping: our
// own retracted rows leave enc (the live numbering compacts onto exactly
// the numbering a fresh session over the survivors would use), the
// peer's retracted points decrement their generations' live counts, and
// every cache entry touching a retracted point dies — our hdp entries
// remap by survivor rank, cached segments covering a peer generation
// that lost points are dropped for re-derivation, and the enhanced core
// bits, which are not monotone under deletion, clear entirely. Both id
// lists are validated (strictly ascending, in live range) before this is
// called.
func (hs *hStream) retractLocal(ownIDs, peerIDs []int) {
	if len(ownIDs) == 0 && len(peerIDs) == 0 {
		return
	}
	if len(ownIDs) > 0 {
		remap := retractRemap(ownIDs)
		out := hs.enc[:0]
		for i, row := range hs.enc {
			if _, ok := remap(i); ok {
				out = append(out, row)
			}
		}
		hs.enc = out
		for g, start := range hs.ownGenStart {
			if g < hs.dead {
				continue
			}
			hs.ownGenStart[g] = start - countBelow(ownIDs, start)
		}
	}
	// Map each retracted peer id (pre-retraction live numbering, which
	// concatenates the live generations in order) to its generation.
	dec := make(map[int]int)
	g, cum := 0, 0
	for _, id := range peerIDs {
		for g < len(hs.peerGenCnt) && id >= cum+hs.peerGenCnt[g] {
			cum += hs.peerGenCnt[g]
			g++
		}
		dec[g]++
	}
	affected := make(map[int]bool, len(dec))
	for g, d := range dec {
		hs.peerGenCnt[g] -= d
		hs.nPeer -= d
		affected[g] = true
	}
	hs.mu.Lock()
	hs.hdp.RetractOwn(ownIDs)
	hs.hdp.DropGens(affected)
	// Deletion can flip a true core bit false and invalidates every
	// entry's recorded dataset sizes: clear it all, as expiry does.
	hs.enhCache = make(map[int]enhEntry)
	hs.mu.Unlock()
}

// countBelow reports how many of the sorted ids are strictly below v.
func countBelow(ids []int, v int) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hdpCovered reads the hdp cache for point i: the cached count over the
// live generation prefix plus the first uncovered generation.
func (hs *hStream) hdpCovered(i int) (count, upto int) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.hdp.Covered(i, hs.dead)
}

// hdpExtend records a fresh count for point i over generations [from, to).
func (hs *hStream) hdpExtend(i, from, to, count int) {
	hs.mu.Lock()
	hs.hdp.Extend(i, from, to, count)
	hs.mu.Unlock()
}

func (hs *hStream) getEnh(i int) (enhEntry, bool) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	e, ok := hs.enhCache[i]
	return e, ok
}

func (hs *hStream) putEnh(i int, core bool, ownN, peerN int) {
	hs.mu.Lock()
	hs.enhCache[i] = enhEntry{core: core, ownN: ownN, peerN: peerN}
	hs.mu.Unlock()
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
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("core: %s protocol requires at least one point per party", proto)
	}
	enc, err := cfg.encodePoints(points)
	if err != nil {
		return nil, err
	}
	dim := len(enc[0])
	for i, p := range enc {
		if len(p) != dim {
			return nil, fmt.Errorf("core: point %d has %d attributes, want %d", i, len(p), dim)
		}
	}
	mux, conns := sessionChannels(conn, cfg.Parallel)
	s, peer, err := newSession(conns[0], cfg, role, proto, dim, len(enc))
	if err != nil {
		return nil, err
	}
	if peer.Dim != dim {
		return nil, fmt.Errorf("%w: record dimension %d vs %d", ErrHandshake, dim, peer.Dim)
	}
	if peer.Count == 0 {
		return nil, fmt.Errorf("core: peer holds no points")
	}
	if err := s.setDimension(dim); err != nil {
		return nil, err
	}
	if s.pruneOn {
		if err := s.exchangeIndex(conns[0], enc); err != nil {
			return nil, err
		}
	}
	hs := newHStream(fam, enc, peer.Count)
	t := &Session{s: s, peer: peer, mux: mux, conns: conns, proto: proto}
	t.idleCtl, _ = conn.(idleController)
	t.setup = s.takeLedger()
	t.runOnce = func() (*Result, error) { return horizontalRunOnce(t, hs, fam) }
	t.appendInit = func(values [][]float64, owners [][]partition.Owner) (bool, error) {
		return horizontalAppendInit(t, hs, values, owners)
	}
	t.appendServe = func(r *transport.Reader) error { return horizontalAppendServe(t, hs, r) }
	t.expireInit = func(gens int) (bool, error) { return horizontalExpireInit(t, hs, gens) }
	t.expireServe = func(r *transport.Reader) error { return horizontalExpireServe(t, hs, r) }
	t.retractInit = func(ids []int) (bool, error) { return horizontalRetractInit(t, hs, ids) }
	t.retractServe = func(r *transport.Reader) error { return horizontalRetractServe(t, hs, r) }
	return t, nil
}

// horizontalExpireInit is the initiating side of one horizontal-family
// expiry: announce the tombstone (which generations die — their contents
// were disclosed at append time, so the tombstone itself adds only the
// window movement) and apply it locally. Expiry is one-way: the receiving
// side holds the same generation ledger, so the tombstone either applies
// identically there or surfaces as a protocol error on its next decode.
func horizontalExpireInit(t *Session, hs *hStream, gens int) (sent bool, err error) {
	live := hs.peerGens() - hs.dead
	if gens < 1 || gens > live {
		return false, fmt.Errorf("core: expire %d of %d live generations", gens, live)
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	msg := transport.NewBuilder().PutUint(sessOpExpire)
	spatial.TombstoneDelta{From: hs.dead, N: gens}.Encode(msg)
	if err := transport.SendMsg(ctrl, msg); err != nil {
		return true, fmt.Errorf("core: session expire op: %w", err)
	}
	return true, finishHExpire(t, hs, gens)
}

// horizontalExpireServe is the serving side: validate the announced
// tombstone against our own generation ledger and apply it.
func horizontalExpireServe(t *Session, hs *hStream, r *transport.Reader) error {
	live := hs.peerGens() - hs.dead
	td, err := spatial.DecodeTombstoneDelta(r, hs.dead, live)
	if err != nil {
		return fmt.Errorf("core: session expire op: %w", err)
	}
	return finishHExpire(t, hs, td.N)
}

// finishHExpire runs the symmetric tail of an expiry on either side:
// tombstone the own index generations, husk the peer's dead directories
// (their cells no longer answer candidate queries), and compact the
// stream state + caches. The Ledger records one IndexTombstones entry
// per dead generation — the only disclosure an expiry makes.
func finishHExpire(t *Session, hs *hStream, gens int) error {
	s := t.s
	if s.pruneOn {
		if _, err := s.ownStack.Expire(gens); err != nil {
			return fmt.Errorf("core: expire index: %w", err)
		}
		for g := hs.dead; g < hs.dead+gens; g++ {
			s.peerDirs[g] = spatial.Directory{Dim: s.dim}
		}
	}
	hs.expireLocal(gens)
	s.led(func(l *Ledger) { l.IndexTombstones += gens })
	return nil
}

// horizontalRetractInit is the initiating side of one horizontal-family
// retraction: announce the point tombstone of our own retracted live
// indices, receive the peer's (possibly empty) tombstone of its own
// points in return, and apply both. Invalid ids fail locally before any
// frame is sent, so they do not poison the session.
func horizontalRetractInit(t *Session, hs *hStream, ids []int) (sent bool, err error) {
	if err := spatial.ValidateRetractIDs(ids, len(hs.enc)); err != nil {
		return false, fmt.Errorf("core: retract: %w", err)
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	msg := transport.NewBuilder().PutUint(sessOpRetract)
	spatial.PointTombstone{IDs: ids}.Encode(msg)
	if err := transport.SendMsg(ctrl, msg); err != nil {
		return true, fmt.Errorf("core: session retract op: %w", err)
	}
	r, err := transport.RecvMsg(ctrl)
	if err != nil {
		return true, fmt.Errorf("core: session retract reply: %w", err)
	}
	peerTomb, err := spatial.DecodePointTombstone(r, hs.nPeer)
	if err != nil {
		return true, fmt.Errorf("core: session retract reply: %w", err)
	}
	return true, finishHRetract(t, hs, ids, peerTomb.IDs)
}

// horizontalRetractServe is the serving side: validate the announced
// tombstone against the peer's live count, ask the session's retract
// source for our own retraction ids, reply with them, and apply both.
func horizontalRetractServe(t *Session, hs *hStream, r *transport.Reader) error {
	peerTomb, err := spatial.DecodePointTombstone(r, hs.nPeer)
	if err != nil {
		return fmt.Errorf("core: session retract op: %w", err)
	}
	ownIDs, err := t.retractSource()(RetractRequest{PeerIDs: peerTomb.IDs})
	if err != nil {
		return fmt.Errorf("core: retract source: %w", err)
	}
	if err := spatial.ValidateRetractIDs(ownIDs, len(hs.enc)); err != nil {
		return fmt.Errorf("core: retract source: %w", err)
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	msg := transport.NewBuilder()
	spatial.PointTombstone{IDs: ownIDs}.Encode(msg)
	if err := transport.SendMsg(ctrl, msg); err != nil {
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
	s := t.s
	if s.pruneOn && len(ownIDs) > 0 {
		if err := s.ownStack.Retract(ownIDs); err != nil {
			return fmt.Errorf("core: retract index: %w", err)
		}
	}
	hs.retractLocal(ownIDs, peerIDs)
	s.led(func(l *Ledger) { l.IndexRetractions += len(ownIDs) + len(peerIDs) })
	return nil
}

// horizontalAppendInit is the initiating side of one horizontal-family
// append: announce our batch size, learn the peer's, and (under pruning)
// swap index deltas. The batches themselves never cross the wire.
func horizontalAppendInit(t *Session, hs *hStream, values [][]float64, owners [][]partition.Owner) (sent bool, err error) {
	s := t.s
	if owners != nil {
		return false, fmt.Errorf("core: %s protocol takes Append, not AppendOwned", t.proto)
	}
	batch, err := encodeHBatch(s, values)
	if err != nil {
		return false, err
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	msg := transport.NewBuilder().PutUint(sessOpAppend).PutUint(uint64(len(batch)))
	if err := transport.SendMsg(ctrl, msg); err != nil {
		return true, fmt.Errorf("core: session append op: %w", err)
	}
	r, err := transport.RecvMsg(ctrl)
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
	s := t.s
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
	batch, err := encodeHBatch(s, values)
	if err != nil {
		return err
	}
	ctrl := t.conns[0]
	setTag(ctrl, "session.op")
	if err := transport.SendMsg(ctrl, transport.NewBuilder().PutUint(uint64(len(batch)))); err != nil {
		return fmt.Errorf("core: session append reply: %w", err)
	}
	return finishHAppend(t, hs, batch, peerCount)
}

// finishHAppend runs the symmetric tail of an append on either side:
// index-delta swap under pruning, then local bookkeeping.
func finishHAppend(t *Session, hs *hStream, batch [][]int64, peerCount int) error {
	s := t.s
	if s.pruneOn {
		if err := s.appendIndexDelta(t.conns[0], batch); err != nil {
			return err
		}
	}
	hs.appendLocal(batch, peerCount)
	return nil
}

// encodeHBatch validates and fixed-point encodes one appended batch of
// this party's points (possibly empty) against the session's established
// dimension.
func encodeHBatch(s *session, values [][]float64) ([][]int64, error) {
	batch, err := s.cfg.encodePoints(values)
	if err != nil {
		return nil, err
	}
	for i, p := range batch {
		if len(p) != s.dim {
			return nil, fmt.Errorf("core: appended point %d has %d attributes, want %d", i, len(p), s.dim)
		}
	}
	return batch, nil
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
		if labels, clusters, err = hPassDriver(s, t.conns, hs, fam); err != nil {
			return nil, err
		}
		if err := hPassResponder(s, t.conns, hs, fam); err != nil {
			return nil, err
		}
	} else {
		if err := hPassResponder(s, t.conns, hs, fam); err != nil {
			return nil, err
		}
		if labels, clusters, err = hPassDriver(s, t.conns, hs, fam); err != nil {
			return nil, err
		}
	}
	return t.result(labels, clusters), nil
}

// hPassDriver is the driving pass of the horizontal family (Algorithm 3/4,
// and Algorithm 7/8 for the enhanced protocol — the control flow is the
// same, only the core decision differs): WaveDrive over the session's
// worker channels, worker slot w's decision running over channel w.
func hPassDriver(s *session, conns []transport.Conn, hs *hStream, fam hFamily) ([]int, int, error) {
	h := &hPass{s: s, hs: hs, own: hs.enc, nPeer: hs.nPeer}
	var decide func(w, point, ownCount int) (bool, error)
	var opTag string
	switch fam {
	case hBasic:
		engA, _, err := s.distEngines()
		if err != nil {
			return nil, 0, err
		}
		opTag = "hdp.op"
		decide = func(w, point, ownCount int) (bool, error) {
			count, err := h.remoteCount(conns[w], point, engA)
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
			return enhancedIsCore(h, conns[w], point, ownCount, shareA, finalA)
		}
	}
	labels, clusters, err := WaveDrive(len(h.own), len(conns), h.localRegionQuery, decide)
	if err != nil {
		return nil, 0, err
	}
	if err := sendDoneAll(conns, opTag); err != nil {
		return nil, 0, err
	}
	return labels, clusters, nil
}

// hPassResponder serves a driving pass across the session's worker
// channels, one responder worker per channel.
func hPassResponder(s *session, conns []transport.Conn, hs *hStream, fam hFamily) error {
	switch fam {
	case hBasic:
		_, engB, err := s.distEngines()
		if err != nil {
			return err
		}
		return parallelServe(s, conns, "hdp.op", func(conn transport.Conn, rng permSource, op uint64, r *transport.Reader) error {
			if op != opQuery {
				return fmt.Errorf("core: responder got unexpected op %d", op)
			}
			return serveBasicQuery(s, conn, rng, engB, hs, r)
		})
	case hEnhanced:
		_, shareB, _, finalB, err := s.enhancedEngines()
		if err != nil {
			return err
		}
		return parallelServe(s, conns, "enh.op", func(conn transport.Conn, rng permSource, op uint64, r *transport.Reader) error {
			if op != opCore {
				return fmt.Errorf("core: enhanced responder got unexpected op %d", op)
			}
			return serveEnhancedCore(s, conn, rng, shareB, finalB, hs.enc, r)
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
func serveBasicQuery(s *session, conn transport.Conn, rng permSource, engB compare.Bob, hs *hStream, r *transport.Reader) error {
	own := hs.enc
	fromGen := int(r.Uint())
	toGen := int(r.Uint())
	if err := r.Err(); err != nil {
		return err
	}
	gens := len(hs.ownGenStart)
	if fromGen < 0 || toGen > gens || fromGen > toGen {
		return fmt.Errorf("core: query span %d..%d of %d generations", fromGen, toGen, gens)
	}
	if toGen == gens {
		defer s.led(func(l *Ledger) { l.DotProducts += len(own) })
	}
	if fromGen == toGen {
		// Empty span: the sweep-closing parity frame of a fully-cached
		// query. Nothing to serve.
		return nil
	}
	if s.pruneOn {
		pts, nDummy, err := s.readPrunedOp(r, own, fromGen, toGen)
		if err != nil {
			return err
		}
		return hdpServeCompare(conn, s, rng, engB, pts, nDummy)
	}
	span := own[hs.ownGenStart[fromGen]:hs.ownSpanEnd(toGen)]
	if len(span) == 0 {
		return nil
	}
	return hdpServeCompare(conn, s, rng, engB, span, 0)
}

// hPass bundles the state one driving pass needs.
type hPass struct {
	s     *session
	hs    *hStream
	own   [][]int64
	nPeer int
}

// localRegionQuery returns the indices of the driver's own points within
// Eps of point i, including i itself (SetOfPointsOfAlice.regionQuery).
func (h *hPass) localRegionQuery(i int) []int {
	var out []int
	for j := range h.own {
		if fixedpoint.DistSq(h.own[i], h.own[j]) <= h.s.epsSq {
			out = append(out, j)
		}
	}
	return out
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
func (h *hPass) remoteCount(conn transport.Conn, i int, eng compare.Alice) (int, error) {
	s := h.s
	if h.nPeer == 0 {
		return 0, nil
	}
	base, fromGen := h.hs.hdpCovered(i)
	gens := h.hs.peerGens()
	prefix := h.nPeer - h.hs.peerSuffix(fromGen)
	s.led(func(l *Ledger) {
		l.NeighborCounts++
		l.MembershipBits += h.nPeer
	})
	s.cmpCached.Add(int64(prefix))

	p := h.own[i]
	count := base
	if fromGen == gens {
		// Fully cached: announce the empty-span query for budget parity,
		// run nothing.
		setTag(conn, "hdp.op")
		msg := transport.NewBuilder().PutUint(opQuery).PutUint(uint64(gens)).PutUint(uint64(gens))
		if err := transport.SendMsg(conn, msg); err != nil {
			return 0, err
		}
		return count, nil
	}
	for g := fromGen; g < gens; g++ {
		genCnt := h.hs.peerGenCnt[g]
		if genCnt == 0 && g < gens-1 {
			// A dead or empty generation needs no wire work; record the
			// zero segment so the sweep stays contiguous. The final
			// generation always goes to the wire — its sub-query closes
			// the sweep for the responder's budget parity.
			h.hs.hdpExtend(i, g, g+1, 0)
			continue
		}
		setTag(conn, "hdp.op")
		msg := transport.NewBuilder().PutUint(opQuery).PutUint(uint64(g)).PutUint(uint64(g + 1))
		nCand := genCnt
		if s.pruneOn {
			cells, total := s.candidateCells(p, g, g+1)
			usePrune := total < genCnt
			msg.PutBool(usePrune)
			if usePrune {
				nCand = total
				spatial.EncodeCells(msg, cells)
			}
		}
		if err := transport.SendMsg(conn, msg); err != nil {
			return 0, err
		}
		fresh := 0
		if nCand > 0 {
			var err error
			fresh, err = hdpCompareDriver(conn, s, eng, p, nCand)
			if err != nil {
				return 0, err
			}
		}
		count += fresh
		h.hs.hdpExtend(i, g, g+1, fresh)
	}
	return count, nil
}
