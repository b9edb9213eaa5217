package core

import (
	"fmt"

	"repro/internal/spatial"
	"repro/internal/transport"
)

// Grid pruning (Config.Pruning = "grid") — the candidate-index layer.
//
// One index exchange per session replaces the exhaustive candidate sets of
// the secure distance phases:
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

// SwapMsg exchanges one frame with the peer, accounted to the given Meter
// tag, without a simultaneous-send deadlock: Alice sends first while Bob
// receives first, so arbitrarily large index frames never block both
// directions at once (the in-process pipe is buffered, a TCP socket is
// not).
func (s *Pair) SwapMsg(conn transport.Conn, tag string, msg *transport.Builder) (*transport.Reader, error) {
	setTag(conn, tag)
	if s.role == RoleAlice {
		if err := transport.SendMsg(conn, msg); err != nil {
			return nil, err
		}
		return transport.RecvMsg(conn)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, err
	}
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, err
	}
	return r, nil
}

// exchangeIndex runs the horizontal-shape index exchange: each party
// sends the padded directory of its construction-time dataset (generation
// 0 of its spatial.Stack) and records what the peer disclosed. Appends
// extend both sides one generation at a time via appendIndexDelta.
func (s *Pair) exchangeIndex(conn transport.Conn, own *OwnGens, peer *PeerGens) error {
	ownDir, err := own.index(s.cellW)
	if err != nil {
		return fmt.Errorf("core: index build: %w", err)
	}
	r, err := s.SwapMsg(conn, "hdp.idx", ownDir.Encode(transport.NewBuilder()))
	if err != nil {
		return fmt.Errorf("core: index exchange: %w", err)
	}
	peerDir, err := spatial.DecodeDirectory(r, s.dim, s.cfg.PruneQuantum)
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

// appendIndexDelta runs one streaming index round: the parties swap
// GridDeltas naming only the cells their gen-th generation touched.
func (s *Pair) appendIndexDelta(conn transport.Conn, gen int, delta spatial.Directory, peer *PeerGens) error {
	r, err := s.SwapMsg(conn, "hdp.idx", spatial.GridDelta{Gen: gen, Dir: delta}.Encode(transport.NewBuilder()))
	if err != nil {
		return fmt.Errorf("core: index delta exchange: %w", err)
	}
	return s.ReadIndexDelta(r, peer)
}

// ReadIndexDelta decodes the peer's GridDelta for its next generation and
// extends our view of its directories; the disclosure is recorded in the
// delta-index Ledger classes.
func (s *Pair) ReadIndexDelta(r *transport.Reader, peer *PeerGens) error {
	d, err := spatial.DecodeGridDelta(r, s.dim, s.cfg.PruneQuantum, len(peer.dirs)+1)
	if err != nil {
		return fmt.Errorf("core: index delta decode: %w", err)
	}
	peer.dirs = append(peer.dirs, d.Dir)
	s.led(func(l *Ledger) {
		l.IndexDeltaCells += len(d.Dir.Cells)
		l.IndexPaddedPoints += d.Dir.PaddedTotal()
	})
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
// generation, or under grid pruning the padded occupancy of the candidate
// cells out of the responder's generation-Gen directory.
type SubQuery struct {
	Point, Gen, NCand int

	pruned bool      // pruning on: cells announced (else the exhaustive fallback)
	cells  [][]int64 // the announced candidate cells, canonical order
}

// SubQuery resolves the sub-query of our point p (live index point)
// against the peer's generation g. Under grid pruning it names the
// candidate cells adjacent to p's cell and runs over their padded
// occupancy; when padding would make that at least as large as the
// generation itself it takes the exhaustive fallback instead, so a pruned
// sweep never compares more than an unpruned one. Whether a sub-query of
// zero candidates is announced at all is the caller's policy.
func (s *Pair) SubQuery(peer *PeerGens, p []int64, point, g int) SubQuery {
	q := SubQuery{Point: point, Gen: g, NCand: peer.Count[g]}
	if s.pruneOn {
		cells, total := s.candidateCells(peer, p, g, g+1)
		if q.pruned = total < q.NCand; q.pruned {
			q.NCand, q.cells = total, cells
		}
	}
	return q
}

// Announce appends the sub-query's candidate fields to an op frame, in the
// form ReadPrunedOp parses: nothing with pruning off, else the
// pruned/exhaustive flag and, when pruned, the candidate cells.
func (s *Pair) Announce(msg *transport.Builder, q SubQuery) {
	if s.pruneOn {
		msg.PutBool(q.pruned)
		if q.pruned {
			spatial.EncodeCells(msg, q.cells)
		}
	}
}

// ReadPrunedOp resolves the candidates of a region or core query op frame
// scoped to our own generations [from, to): the candidate points
// (generation-major) plus how many dummy entries pad the batch to the
// disclosed stacked counts. With pruning off that is the span itself.
// With pruning on the driver appended the exhaustive-fallback flag and,
// for pruned queries, the candidate cells (spatial.Stack.ResolveSpan
// validates them); on fallback the result is again the span with no
// dummies. The flag itself is an index signal (it tells the responder
// whether the query's candidate cells cover at least the exhaustive
// span), so it is accounted in IndexQueryCells alongside any announced
// cells.
func (s *Pair) ReadPrunedOp(r *transport.Reader, own *OwnGens, from, to int) (pts [][]int64, nDummy int, err error) {
	if !s.pruneOn {
		return own.Span(from, to), 0, nil
	}
	pruned := r.Bool()
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if !pruned {
		s.led(func(l *Ledger) { l.IndexQueryCells++ })
		return own.Span(from, to), 0, nil
	}
	cells, err := spatial.DecodeCells(r, s.dim)
	if err != nil {
		return nil, 0, fmt.Errorf("core: query cells: %w", err)
	}
	members, nDummy, err := own.stack.ResolveSpan(from, to, cells)
	if err != nil {
		return nil, 0, fmt.Errorf("core: query cells: %w", err)
	}
	pts = make([][]int64, len(members))
	for i, j := range members {
		pts[i] = own.Enc[j]
	}
	s.led(func(l *Ledger) { l.IndexQueryCells += 1 + len(cells) })
	return pts, nDummy, nil
}

// ---- Pruned lockstep decisions ----

// PrunedLocalDecider adapts a cell matrix to LockstepCluster's local
// decision hook: nil when pruning is off (cellRows == nil), otherwise
// pairs in non-adjacent cells are decided out-of-range locally (onPruned,
// when non-nil, runs their Ledger budget accounting) and only the
// remaining pairs reach the oracle. Every participant decides
// identically over the shared cell matrix, so batch boundaries stay in
// lock step. The vertical/arbitrary families and the multiparty ring all
// share it, so the pruning contract has one source of truth.
func PrunedLocalDecider(cellRows [][]int64, onPruned func(pr [2]int)) func(pr [2]int) (value, decided bool) {
	if cellRows == nil {
		return nil
	}
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
