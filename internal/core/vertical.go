package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// VerticalAlice runs the §4.3 protocol (Algorithms 5–6) as Alice, who owns
// the leading attribute columns of every record; attrs is her n×l matrix.
// The peer concurrently runs VerticalBob with the remaining columns. Both
// parties obtain the full labelling of all n records — the protocol's
// defined output (§3.3: for records split between the parties, both learn
// the cluster number).
//
// VDP — the vertically-partitioned distance protocol — needs no
// Multiplication Protocol: each party sums squared differences over its
// own columns and a single secure comparison decides
// PA + PB ≤ Eps² per pair (Theorem 10's only disclosure).
//
// Round structure (Config.Batching): the lockstep driver settles the whole
// pair matrix before it clusters (LockstepCluster). Under the default
// batched mode the pairs that neither the grid index nor the pair cache
// decides travel in chunks of whole rows — a row is one record's undecided
// pairs against the records before it — each chunk one BatchLess: 3
// vdp.cmp frames per chunk of up to 256 decisions, a handful of round
// trips for a cold run instead of the sequential O(n²), and one chunk for
// a run after a small Append. The per-pair payloads, the decided
// predicates, and the PairDecisions Ledger count are identical in both
// modes. Chunk c rides worker channel c mod W (W = Config.Parallel), so up
// to W chunks overlap their round trips, with identical decided pairs.
//
// This is the one-shot form; NewVerticalSession establishes a long-lived
// session whose index exchange and keys serve many Run calls.
func VerticalAlice(conn transport.Conn, cfg Config, attrs [][]float64) (*Result, error) {
	return runOneShot(NewVerticalSession(conn, cfg, RoleAlice, attrs))
}

// VerticalBob is Alice's counterpart; see VerticalAlice.
func VerticalBob(conn transport.Conn, cfg Config, attrs [][]float64) (*Result, error) {
	return runOneShot(NewVerticalSession(conn, cfg, RoleBob, attrs))
}

// NewVerticalSession establishes a long-lived §4.3 session: handshake,
// keys, and (under grid pruning) the per-record cell-matrix exchange
// happen once; each Run executes one lockstep clustering.
func NewVerticalSession(conn transport.Conn, cfg Config, role Role, attrs [][]float64) (*Session, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: vertical protocol requires at least one record")
	}
	enc, err := cfg.EncodePoints(attrs)
	if err != nil {
		return nil, err
	}
	ownDim := len(enc[0])
	for i, p := range enc {
		if len(p) != ownDim {
			return nil, fmt.Errorf("core: record %d has %d attributes, want %d", i, len(p), ownDim)
		}
	}
	s, peer, err := establish(conn, cfg, role, "vertical", ownDim, len(enc))
	if err != nil {
		return nil, err
	}
	if peer.Count != len(enc) {
		return nil, fmt.Errorf("%w: record count %d vs %d", ErrHandshake, len(enc), peer.Count)
	}
	if peer.Dim < 1 {
		return nil, fmt.Errorf("%w: peer owns no attributes", ErrHandshake)
	}
	if err := s.setDimension(ownDim + peer.Dim); err != nil {
		return nil, err
	}
	// Grid pruning: both parties disclose per-record cell coordinates over
	// their own columns and assemble the same full cell matrix, so pairs
	// in non-adjacent cells are decided out of range locally — on both
	// sides identically — and never reach the comparison oracle. Pruned
	// pairs keep their PairDecisions budget entry (the index implies the
	// decision; see Ledger docs). The exchange is session-level state:
	// repeated Runs reuse the matrix without disclosing it again, and an
	// Append extends it by the new rows only.
	var cellRows [][]int64
	if s.pruneOn {
		own := vBucket(s, enc)
		r, err := s.SwapMsg(s.Conns[0], "vdp.idx", spatial.EncodeCells(transport.NewBuilder(), own))
		if err != nil {
			return nil, fmt.Errorf("core: vdp index exchange: %w", err)
		}
		if cellRows, err = vCellRows(s, r, own, peer.Dim); err != nil {
			return nil, err
		}
	}
	vs := &vStream{RowGens: NewRowGens(len(enc), cellRows), enc: enc, peerDim: peer.Dim}
	t := newSession(conn, s, "vertical")
	t.runOnce = func() (*Result, error) { return verticalRunOnce(t, vs) }
	t.appendInit = func(values [][]float64, owners [][]partition.Owner) (bool, error) {
		return verticalAppendInit(t, vs, values, owners)
	}
	t.appendServe = func(r *transport.Reader) error { return verticalAppendServe(t, vs, r) }
	t.window = vs.Window
	t.expire = func(gens int) error {
		vs.enc = vs.enc[vs.Expire(gens):]
		return nil
	}
	t.rowRetract(vs.RowGens, func(ids []int) { vs.enc = CompactRows(vs.enc, ids) })
	return t, nil
}

// vStream is the vertical family's mutable session state: the shared-row
// generation table (cell matrix under pruning and the cross-run pair cache
// included — pair bits are public to both parties (Theorem 10), so both
// hold identical caches and the seeded lockstep drivers stay in lock step)
// plus the one matrix that is this family's own, the growing record matrix
// of this party's columns.
type vStream struct {
	*RowGens
	enc     [][]int64
	peerDim int
}

// verticalAppendInit announces this party's columns of the appended
// records and completes the cell-coordinate swap; the record count must
// match on both sides (the records are shared, column-split).
func verticalAppendInit(t *Session, vs *vStream, values [][]float64, owners [][]partition.Owner) (sent bool, err error) {
	s := t.s
	if owners != nil {
		return false, fmt.Errorf("core: vertical protocol takes Append, not AppendOwned")
	}
	batch, err := encodeVBatch(s, values, s.dim-vs.peerDim)
	if err != nil {
		return false, err
	}
	msg := transport.NewBuilder().PutUint(sessOpAppend).PutUint(uint64(len(batch)))
	own := appendVCoords(s, msg, batch)
	if err := t.sendOp(msg); err != nil {
		return true, fmt.Errorf("core: session append op: %w", err)
	}
	r, err := transport.RecvMsg(s.Conns[0])
	if err != nil {
		return true, fmt.Errorf("core: session append reply: %w", err)
	}
	peerCount := int(r.Uint())
	if err := r.Err(); err != nil {
		return true, err
	}
	return true, finishVAppend(t, vs, batch, own, peerCount, r)
}

// verticalAppendServe is the serving side: the source must supply this
// party's columns of exactly the announced records.
func verticalAppendServe(t *Session, vs *vStream, r *transport.Reader) error {
	s := t.s
	peerCount := int(r.Uint())
	if err := r.Err(); err != nil {
		return err
	}
	values, err := t.appendSource()(AppendRequest{PeerCount: peerCount})
	if err != nil {
		return fmt.Errorf("core: append source: %w", err)
	}
	if len(values) != peerCount {
		return fmt.Errorf("core: append source returned %d records, want %d (vertical records are shared)", len(values), peerCount)
	}
	batch, err := encodeVBatch(s, values, s.dim-vs.peerDim)
	if err != nil {
		return err
	}
	msg := transport.NewBuilder().PutUint(uint64(len(batch)))
	own := appendVCoords(s, msg, batch)
	if err := t.sendOp(msg); err != nil {
		return fmt.Errorf("core: session append reply: %w", err)
	}
	return finishVAppend(t, vs, batch, own, peerCount, r)
}

// vBucket is this party's own-column cell coordinates of a batch of rows
// — the per-row payload of every vertical index disclosure.
func vBucket(s *Pair, batch [][]int64) [][]int64 {
	rows := make([][]int64, len(batch))
	for i, p := range batch {
		rows[i] = spatial.Bucket(p, s.cellW)
	}
	return rows
}

// vCellRows reads the peer's own-column cell coordinates of the rows we
// bucketed as own and assembles the full per-record cell rows, Alice's
// columns leading — matching the virtual record layout.
func vCellRows(s *Pair, r *transport.Reader, own [][]int64, peerDim int) ([][]int64, error) {
	peer, err := spatial.DecodeCells(r, peerDim)
	if err != nil {
		return nil, fmt.Errorf("core: vdp index decode: %w", err)
	}
	if len(peer) != len(own) {
		return nil, fmt.Errorf("core: vdp index has %d rows, want %d", len(peer), len(own))
	}
	s.led(func(l *Ledger) { l.IndexCellCoords += len(peer) * peerDim })
	full := make([][]int64, len(own))
	for i := range own {
		a, b := own[i], peer[i]
		if s.role == RoleBob {
			a, b = b, a
		}
		full[i] = append(append(make([]int64, 0, len(a)+len(b)), a...), b...)
	}
	return full, nil
}

// appendVCoords attaches this party's own-column cell coordinates of the
// appended rows when pruning is on (tagged index disclosure, exactly the
// per-row payload of the construction-time exchange) and returns them.
func appendVCoords(s *Pair, msg *transport.Builder, batch [][]int64) [][]int64 {
	if !s.pruneOn {
		return nil
	}
	own := vBucket(s, batch)
	spatial.EncodeCells(msg, own)
	return own
}

// finishVAppend validates the peer half of the exchange (the already-
// parsed count, and under pruning the peer's cell coordinates of the
// same rows — r is positioned at them) and extends the session state.
func finishVAppend(t *Session, vs *vStream, batch, own [][]int64, peerCount int, r *transport.Reader) error {
	if peerCount != len(batch) {
		return fmt.Errorf("core: append count %d vs peer %d (vertical records are shared)", len(batch), peerCount)
	}
	var cells [][]int64
	if t.s.pruneOn {
		var err error
		if cells, err = vCellRows(t.s, r, own, vs.peerDim); err != nil {
			return err
		}
		t.s.led(func(l *Ledger) { l.IndexDeltaCells += len(cells) })
	}
	vs.enc = append(vs.enc, batch...)
	vs.Append(len(batch), cells)
	return nil
}

// encodeVBatch validates and encodes appended rows of this party's
// columns.
func encodeVBatch(s *Pair, values [][]float64, ownDim int) ([][]int64, error) {
	batch, err := s.cfg.EncodePoints(values)
	if err != nil {
		return nil, err
	}
	for i, p := range batch {
		if len(p) != ownDim {
			return nil, fmt.Errorf("core: appended record %d has %d attributes, want %d", i, len(p), ownDim)
		}
	}
	return batch, nil
}

// verticalRunOnce executes one lockstep clustering over the established
// session state, seeded with the cross-run pair cache: pairs decided in
// earlier runs never reach the comparison oracle again, but still record
// their decision-level budget the first time each run consults them.
func verticalRunOnce(t *Session, vs *vStream) (*Result, error) {
	s := t.s
	role := s.role
	enc := vs.enc
	engA, engB, err := s.DistEngines()
	if err != nil {
		return nil, err
	}
	onPruned := func([2]int) { s.led(func(l *Ledger) { l.PairDecisions++ }) }
	onCached := func(pr [2]int, in bool) {
		s.led(func(l *Ledger) { l.PairDecisions++ })
		s.cmpCached.Add(1)
	}
	// Fixed comparison roles for the whole run: Alice always holds the
	// left value (her partial sum PA), Bob the right (Eps² − PB). A chunk
	// holds whole rows; Alice names each pair's row, so equal partial sums
	// share an uplink ciphertext within one neighbourhood only
	// (compare/full.go).
	batchOn := func(ch int, pairs [][2]int) ([]bool, error) {
		conn := t.s.Conns[ch]
		setTag(conn, "vdp.cmp")
		s.led(func(l *Ledger) { l.PairDecisions += len(pairs) })
		vals := make([]int64, len(pairs))
		for u, pr := range pairs {
			partial := partialDistSq(enc, pr[0], pr[1])
			if role == RoleAlice {
				vals[u] = partial
			} else {
				vals[u] = s.responderOperand(engB.Bound(), partial)
			}
		}
		if role == RoleAlice {
			return engA.BatchLessRows(conn, vals, PairRows(pairs))
		}
		return engB.BatchLess(conn, vals)
	}
	if !s.batched() {
		batchOn = PerPairOracle(func(i, j int) (bool, error) {
			conn := t.s.Conns[0]
			setTag(conn, "vdp.cmp")
			s.led(func(l *Ledger) { l.PairDecisions++ })
			partial := partialDistSq(enc, i, j)
			if role == RoleAlice {
				return engA.Less(conn, partial)
			}
			return engB.Less(conn, s.responderOperand(engB.Bound(), partial))
		})
	}
	labels, clusters, err := LockstepCluster(len(enc), s.cfg.MinPts, s.cfg.Parallel, s.lockstepFrameBytes(engA, engB),
		vs.Cache, onCached, PrunedLocalDecider(vs.CellRows, onPruned), batchOn)
	if err != nil {
		return nil, err
	}
	return t.result(labels, clusters), nil
}

// partialDistSq sums squared differences over this party's own columns.
func partialDistSq(enc [][]int64, i, j int) int64 {
	var s int64
	for k := range enc[i] {
		d := enc[i][k] - enc[j][k]
		s += d * d
	}
	return s
}
