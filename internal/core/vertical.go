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
// Round structure: the lockstep driver settles the whole pair matrix
// before it clusters (LockstepCluster). The pairs that neither the grid
// index nor the pair cache decides travel in chunks of whole rows — a row
// is one record's undecided pairs against the records before it — and a
// chunk is its comparisons (Pair.decidePairs): one BatchLess, 3 vdp.cmp
// frames per chunk of up to 256 decisions — a handful of round trips for a
// cold run, and one chunk for a run after a small Append — or, under
// Config.Batching = "sequential", the same chunk one comparison at a time.
// The per-pair payloads, the decided predicates, and the PairDecisions
// Ledger count are identical in both modes. Chunk c rides worker channel c
// mod W (W = Config.Parallel), so up to W chunks overlap their round
// trips, with identical decided pairs.
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
// keys, and the per-record cell-matrix exchange happen once; each Run
// executes one lockstep clustering.
func NewVerticalSession(conn transport.Conn, cfg Config, role Role, attrs [][]float64) (*Session, error) {
	t, _, err := newVerticalSession(conn, cfg, role, attrs)
	return t, err
}

// newVerticalSession is NewVerticalSession that also returns the family's
// session state, which the per-pair test oracle runs on.
func newVerticalSession(conn transport.Conn, cfg Config, role Role, attrs [][]float64) (*Session, *vStream, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	if len(attrs) == 0 {
		return nil, nil, fmt.Errorf("core: vertical protocol requires at least one record")
	}
	enc, err := cfg.EncodePoints(attrs)
	if err != nil {
		return nil, nil, err
	}
	ownDim := len(enc[0])
	for i, p := range enc {
		if len(p) != ownDim {
			return nil, nil, fmt.Errorf("core: record %d has %d attributes, want %d", i, len(p), ownDim)
		}
	}
	keys, err := DrawKeySet(cfg)
	if err != nil {
		return nil, nil, err
	}
	s, peer, err := establish(conn, cfg, keys, role, "vertical", ownDim, len(enc))
	if err != nil {
		return nil, nil, err
	}
	if peer.Count != len(enc) {
		return nil, nil, fmt.Errorf("%w: record count %d vs %d", ErrHandshake, len(enc), peer.Count)
	}
	if peer.Dim < 1 {
		return nil, nil, fmt.Errorf("%w: peer owns no attributes", ErrHandshake)
	}
	if err := s.setDimension(ownDim + peer.Dim); err != nil {
		return nil, nil, err
	}
	// The index: both parties disclose per-record cell coordinates over
	// their own columns on the candidate grid (CandidateGrid) and assemble
	// the same full cell matrix, so pairs in non-adjacent cells are decided
	// out of range locally — on both sides identically — and never reach
	// the comparison oracle; on the one-cell grid every pair is adjacent.
	// Pruned pairs keep their PairDecisions budget entry (the index implies
	// the decision; see Ledger docs). The exchange is session-level state:
	// repeated Runs reuse the matrix without disclosing it again, and an
	// Append extends it by the new rows only.
	own := vBucket(s, enc)
	r, err := s.Swap("vdp.idx", spatial.EncodeCells(transport.NewBuilder(), own))
	if err != nil {
		return nil, nil, fmt.Errorf("core: vdp index exchange: %w", err)
	}
	cellRows, err := vCellRows(s, r, own, peer.Dim)
	if err != nil {
		return nil, nil, err
	}
	aliceDim := ownDim
	if role == RoleBob {
		aliceDim = peer.Dim
	}
	vs := &vStream{RowGens: NewRowGens(len(enc), cellRows), enc: enc, peerDim: peer.Dim, domain: s.verticalDomain(aliceDim)}
	t := newSession(conn, s, "vertical")
	t.runOnce = func() (*Result, error) { return verticalRunOnce(t, vs) }
	// An append's index payload is this party's own-column cell coordinates
	// of the appended records, exactly the per-row payload of the
	// construction-time exchange.
	t.appends = appendHooks{
		shared: true,
		live:   func() int { return vs.N },
		encode: func(values [][]float64, _ [][]partition.Owner) ([][]int64, error) {
			return encodeVBatch(s, values, ownDim)
		},
		put: func(msg *transport.Builder, batch [][]int64, _ [][]partition.Owner) error {
			spatial.EncodeCells(msg, vBucket(s, batch))
			return nil
		},
		absorb: func(r *transport.Reader, batch [][]int64, _ [][]partition.Owner, _ int) error {
			cells, err := vCellRows(s, r, vBucket(s, batch), vs.peerDim)
			if err != nil {
				return err
			}
			// One delta entry per coordinate the peer disclosed, as arbitrary
			// counts them and as IndexCellCoords counts the construction-time
			// exchange.
			s.led(func(l *Ledger) { l.IndexDeltaCells += len(cells) * vs.peerDim })
			vs.enc = append(vs.enc, batch...)
			vs.Append(len(batch), cells)
			return nil
		},
	}
	t.window = vs.Window
	t.expire = func(gens int) error {
		vs.enc = vs.enc[vs.Expire(gens):]
		return nil
	}
	t.rowRetract(vs.RowGens, func(ids []int) { vs.enc = CompactRows(vs.enc, ids) })
	return t, vs, nil
}

// vStream is the vertical family's mutable session state: the shared-row
// generation table (cell matrix and the cross-run pair cache
// included — pair bits are public to both parties (Theorem 10), so both
// hold identical caches and the seeded lockstep drivers stay in lock step)
// plus the one matrix that is this family's own, the growing record matrix
// of this party's columns, and the session's comparison domain.
type vStream struct {
	*RowGens
	enc     [][]int64
	peerDim int
	domain  int64 // verticalDomain: RoleAlice's partial sums lie in [0, domain]
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
	peer, err := spatial.DecodeCells(r, len(own), peerDim)
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
	enc := vs.enc
	engA, engB, err := s.engines(vs.domain + 1)
	if err != nil {
		return nil, err
	}
	onPruned := func([2]int) { s.led(func(l *Ledger) { l.PairDecisions++ }) }
	onCached := func(pr [2]int, in bool) {
		s.led(func(l *Ledger) { l.PairDecisions++ })
		s.cmpCached.Add(1)
	}
	// Alice's share of a pair's dist² is her partial sum PA, Bob's his PB.
	batchOn := func(ch int, pairs [][2]int) ([]bool, error) {
		shares := make([]int64, len(pairs))
		for u, pr := range pairs {
			shares[u] = partialDistSq(enc, pr[0], pr[1])
		}
		return s.decidePairs(s.Conns[ch], "vdp.cmp", engA[ch], engB[ch], PairRows(pairs), shares)
	}
	labels, clusters, err := LockstepCluster(len(enc), s.cfg.MinPts, s.cfg.Parallel, s.lockstepFrameBytes(engA[0], engB[0]),
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
