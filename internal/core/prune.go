package core

import (
	"errors"
	"fmt"

	"repro/internal/spatial"
	"repro/internal/transport"
)

// The candidate-index layer. Every session runs one index exchange on its
// candidate grid (CandidateGrid): the Eps grid under grid pruning
// (Config.Pruning = "grid"), which replaces the exhaustive candidate sets
// of the secure distance phases as below, or the one-cell grid under
// "off" and the geometric fallback, on which every candidate set is the
// exhaustive one — a directory of one cell padded to the exact count, an
// all-zero cell matrix, and a fallback flag on every query:
//
//   - Horizontal family: each party buckets its points into an Eps-width
//     grid and sends the peer a padded occupancy directory (tag hdp.idx).
//     A region query then announces the ≤3^d candidate cells adjacent to
//     the query point's cell, and the MP + comparison phases run over the
//     announced cells' padded occupancy only — real candidates plus
//     always-out-of-range dummy entries, freshly permuted, so per-query
//     batch sizes reveal nothing beyond the directory itself.
//   - Lockstep family (vertical/arbitrary/ring): each party disclosed the
//     per-record cell coordinates of the attributes it owns (tags
//     vdp.idx/adp.idx); every participant assembles the same full cell
//     matrix, and pairs in non-adjacent cells are decided out-of-range
//     locally, never reaching the oracle. Batch boundaries stay identical
//     on all sides because the matrix is shared.
//
// Soundness rests on spatial.CellWidth: within-Eps points are always in
// adjacent cells, so pruning never flips a predicate — it only removes
// cryptographic work whose outcome the index already implies. Every index
// disclosure is accounted in the Ledger's Index* classes; the non-index
// classes keep their decision-level budgets (see Ledger docs).

// Swap exchanges one frame with the peer on the edge's first channel,
// accounted to the given Meter tag: both parties send and receive at once
// (transport.Exchange), so the swap costs one one-way delay whichever
// side reaches it first, and frames of any size cannot block both
// directions.
func (s *Pair) Swap(tag string, msg *transport.Builder) (*transport.Reader, error) {
	setTag(s.Conns[0], tag)
	return transport.Exchange(s.Conns[0], msg)
}

// exchangeIndex runs the horizontal-shape index exchange: each party
// sends the padded directory of its construction-time dataset (generation
// 0 of its spatial.Stack) and records what the peer disclosed. Appends
// extend both sides one generation at a time: each append frame carries
// its batch's GridDelta (OwnGens.AppendDelta, ReadIndexDelta).
func (s *Pair) exchangeIndex(own *OwnGens, peer *PeerGens) error {
	ownDir, err := own.index(s.cellW, s.quantum)
	if err != nil {
		return fmt.Errorf("core: index build: %w", err)
	}
	r, err := s.Swap("hdp.idx", ownDir.Encode(transport.NewBuilder()))
	if err != nil {
		return fmt.Errorf("core: index exchange: %w", err)
	}
	peerDir, err := spatial.DecodeDirectory(r, s.dim, s.quantum)
	if err != nil {
		return fmt.Errorf("core: index decode: %w", err)
	}
	peer.dirs = []spatial.Directory{peerDir}
	s.led(func(l *Ledger) {
		l.IndexCells += len(peerDir.Cells)
		l.IndexPaddedPoints += peerDir.PaddedTotal()
	})
	return nil
}

// ReadIndexDelta decodes the peer's GridDelta for its next generation, of
// count points (ReadCount), and extends our view of its generations; the
// disclosure is recorded in the delta-index Ledger classes. The count must
// be one the delta's padding can hide (checkDeltaCount), or the append
// fails with ErrPointCount before the generation is recorded.
func (s *Pair) ReadIndexDelta(r *transport.Reader, peer *PeerGens, count int) error {
	d, err := spatial.DecodeGridDelta(r, s.dim, s.quantum, len(peer.dirs)+1)
	if err != nil {
		return fmt.Errorf("core: index delta decode: %w", err)
	}
	if err := checkDeltaCount(count, d.Dir, s.quantum); err != nil {
		return err
	}
	peer.dirs = append(peer.dirs, d.Dir)
	peer.Append(count)
	s.led(func(l *Ledger) {
		l.IndexDeltaCells += len(d.Dir.Cells)
		l.IndexPaddedPoints += d.Dir.PaddedTotal()
	})
	return nil
}

// checkDeltaCount holds an append's declared count against the padded
// directory of the same batch: a cell padded to c holds between
// c − (quantum − 1) and c points, so the count lies in
// [PaddedTotal − cells·(quantum − 1), PaddedTotal]. Each term is capped at
// count + quantum, which keeps a hostile directory's sum from overflowing
// and, since such a cell alone holds more than count points, still fails.
func checkDeltaCount(count int, dir spatial.Directory, quantum int) error {
	padded := 0
	for _, c := range dir.Cells {
		padded += min(c.Count, count+quantum)
	}
	if count > padded || count < padded-len(dir.Cells)*(quantum-1) {
		return fmt.Errorf("%w: %d points declared beside an index delta of %d cells padded to %d", ErrPointCount, count, len(dir.Cells), padded)
	}
	return nil
}

// candidateCells is the driver-side half of a pruned query scoped to the
// peer's generations [from, to): their occupied cells adjacent to p's
// cell, plus the stacked padded occupancy total (the exact number of
// MP/comparison instances the query will run). The full index is
// (0, len(peer.dirs)); the per-generation sub-queries of an HDP sweep
// bound both ends so cached segments align with generation boundaries.
func (s *Pair) candidateCells(peer *PeerGens, p []int64, from, to int) (cells [][]int64, total int) {
	return spatial.CandidatesSpan(peer.dirs, from, to, spatial.Bucket(p, s.cellW))
}

// SubQuery is one HDP region sub-query: the driver's live point Point —
// the row it belongs to — against the responder's generation Gen. NCand is
// the number of candidate instances it commits both sides to: the whole
// generation, or when pruned the padded occupancy of the candidate cells
// out of the responder's generation-Gen directory.
type SubQuery struct {
	Point, Gen, NCand int

	pruned bool      // cells announced (else the exhaustive fallback)
	cells  [][]int64 // the announced candidate cells, canonical order
}

// SubQuery resolves the sub-query of our point p (live index point)
// against the peer's generation g: the candidate cells adjacent to p's
// cell, run over their padded occupancy — or, when padding would make that
// at least as large as the generation itself, the exhaustive fallback, so
// a pruned sweep never compares more than an unpruned one. On the one-cell
// grid (CandidateGrid) the fallback is every sub-query. Whether a
// sub-query of zero candidates is announced at all is the caller's policy.
func (s *Pair) SubQuery(peer *PeerGens, p []int64, point, g int) SubQuery {
	q := SubQuery{Point: point, Gen: g, NCand: peer.Count[g]}
	s.narrow(&q, peer, p, g, g+1)
	return q
}

// narrow is the one pruning rule, for region sub-queries and core queries
// alike: q, over the peer's live count q.NCand, takes the candidate cells
// adjacent to p's cell in the peer's generations [from, to) only when
// their padded occupancy is below that count. On the one-cell grid it
// never is, so the query stays exhaustive.
func (s *Pair) narrow(q *SubQuery, peer *PeerGens, p []int64, from, to int) {
	cells, total := s.candidateCells(peer, p, from, to)
	if q.pruned = total < q.NCand; q.pruned {
		q.NCand, q.cells = total, cells
	}
}

// Announce appends the sub-query's candidate fields to an op frame, in the
// form ReadPrunedOp parses: the pruned/exhaustive flag and, when pruned,
// the candidate cells.
func (s *Pair) Announce(msg *transport.Builder, q SubQuery) {
	msg.PutBool(q.pruned)
	if q.pruned {
		spatial.EncodeCells(msg, q.cells)
	}
}

// ErrPrunedSpan reports a pruned announcement an honest driver never
// makes: one whose candidate cells pad to at least the live count of the
// span it names. A driver prunes only below that count (Pair.narrow), so
// the refusal costs an honest run nothing, and on the one-cell grid —
// where the padded total always covers the span — it is what keeps an
// exhaustive query free of dummies.
var ErrPrunedSpan = errors.New("core: pruned announcement does not shrink its span")

// ReadPrunedOp resolves the candidates of a region or core query op frame
// scoped to our own generations [from, to): the candidate points
// (generation-major) plus how many dummy entries pad the batch to the
// disclosed stacked counts. The driver appended the exhaustive-fallback
// flag and, for pruned queries, the candidate cells
// (spatial.Stack.ResolveSpan validates them); on fallback the result is
// the span with no dummies. The flag itself is an index signal (it tells
// the responder whether the query's candidate cells cover at least the
// exhaustive span), so it is accounted in IndexQueryCells alongside any
// announced cells.
func (s *Pair) ReadPrunedOp(r *transport.Reader, own *OwnGens, from, to int) (pts [][]int64, nDummy int, err error) {
	pts, nDummy, cells, err := s.readPruned(r, own, from, to)
	if cells > 0 {
		s.led(func(l *Ledger) { l.IndexQueryCells += cells })
	}
	return pts, nDummy, err
}

// readPruned is ReadPrunedOp without the Ledger: it returns the
// IndexQueryCells the op discloses instead of recording them, for a caller
// that records only once the whole frame has passed its checks. A pruned
// announcement whose cells pad to at least the span's live count is
// refused with ErrPrunedSpan.
func (s *Pair) readPruned(r *transport.Reader, own *OwnGens, from, to int) (pts [][]int64, nDummy, indexCells int, err error) {
	pruned := r.Bool()
	if err := r.Err(); err != nil {
		return nil, 0, 0, err
	}
	span := own.Span(from, to)
	if !pruned {
		return span, 0, 1, nil
	}
	// A query names at most its cell's 3^dim neighbours.
	most := 1
	for i := 0; i < s.dim && most < r.Remaining(); i++ {
		most *= 3
	}
	cells, err := spatial.DecodeCells(r, most, s.dim)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: query cells: %w", err)
	}
	members, nDummy, err := own.stack.ResolveSpan(from, to, cells)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: query cells: %w", err)
	}
	if padded := len(members) + nDummy; padded >= len(span) {
		return nil, 0, 0, fmt.Errorf("%w: %d cells pad to %d of %d live points", ErrPrunedSpan, len(cells), padded, len(span))
	}
	pts = make([][]int64, len(members))
	for i, j := range members {
		pts[i] = own.Enc[j]
	}
	return pts, nDummy, 1 + len(cells), nil
}

// ---- Pruned lockstep decisions ----

// PrunedLocalDecider adapts a cell matrix to LockstepCluster's local
// decision hook: pairs in non-adjacent cells are decided out-of-range
// locally (onPruned, when non-nil, runs their Ledger budget accounting)
// and only the remaining pairs reach the oracle — none are decided on the
// one-cell grid. Every participant decides
// identically over the shared cell matrix, so batch boundaries stay in
// lock step. The vertical/arbitrary families and the multiparty ring all
// share it, so the pruning contract has one source of truth.
func PrunedLocalDecider(cellRows [][]int64, onPruned func(pr [2]int)) func(pr [2]int) (value, decided bool) {
	return func(pr [2]int) (bool, bool) {
		if spatial.Adjacent(cellRows[pr[0]], cellRows[pr[1]]) {
			return false, false
		}
		if onPruned != nil {
			onPruned(pr)
		}
		return false, true
	}
}
