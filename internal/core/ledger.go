package core

import (
	"fmt"
	"strings"
)

// Ledger records what a protocol run disclosed beyond its defined output,
// quantifying the privacy statements of Theorems 9–11:
//
//   - The basic horizontal protocol "reveals the number of points from the
//     other party in the neighborhood of this point" (Theorem 9): one
//     NeighborCounts entry per region query, made of MembershipBits
//     per-permuted-point booleans.
//   - The vertical protocol reveals each pairwise within-Eps decision to
//     both parties (Theorem 10): PairDecisions.
//   - The enhanced protocol reveals only core-point bits (Theorem 11) plus
//     — inherent in its secure selection — the relative order of masked
//     distances: OrderBits and CoreBits.
//   - DotProducts counts HDP invocations in which the zero-sum masks
//     cancelled, handing the responder the exact cross dot product — the
//     soundness gap noted in the MP-phase description of hdp.go.
//
// # Accounting under grid pruning
//
// The non-index classes are decision-level budgets: they count the
// predicates a run determined for this party, whether a predicate was
// settled cryptographically or was already implied by the public candidate
// index (a pruned point is guaranteed out of range by cell geometry). A
// run with Config.Pruning "grid" therefore records exactly the same
// NeighborCounts / MembershipBits / PairDecisions / DotProducts as the
// same run with pruning off — the equivalence harness asserts this — while
// its actual cryptographic exposure is strictly smaller (DotProducts in
// particular upper-bounds the masked products a pruned responder really
// received; bench records the mechanical reduction as
// spatial.candidate_ratio).
// What the index adds is its disclosure, tracked first-class in the Index*
// entries. Every mode runs the index exchange; under pruning "off" (and the
// geometric fallback) it is the one-cell grid's — one cell per directory
// padded to the exact count the handshake or the append op already
// carried, all-zero cell coordinates, and the fallback flag of every
// query — so those entries count frames that say nothing new:
//
//   - IndexCells / IndexPaddedPoints: the one-time candidate-index
//     exchange — how many occupied Eps-grid cells the peer disclosed and
//     their total occupancy, padded to the PruneQuantum so exact per-cell
//     counts never leak.
//   - IndexCellCoords: per-record cell coordinates received in the
//     lockstep (vertical/arbitrary/ring) index exchange — coarse location
//     of each shared record in the discloser's attribute subspace.
//   - IndexQueryCells: per-query index signals received — one for each
//     query's pruned/fallback flag (the flag alone places the query's
//     cell neighbourhood above or below the exhaustive size) plus one per
//     announced candidate cell, each revealing the querying point's cell
//     neighbourhood.
//   - IndexDeltaCells: cells received in a streaming index delta — each
//     Session.Append discloses, per party, the padded occupancy of just
//     the cells the appended batch touched (one generation of the
//     spatial.Stack), so IndexDeltaCells is the incremental analogue of
//     IndexCells. Delta padded counts also accumulate into
//     IndexPaddedPoints. Under the vertical and arbitrary families an
//     append discloses the appended records' cell coordinates instead, and
//     IndexDeltaCells counts them in IndexCellCoords' unit: one per
//     coordinate received.
//   - IndexTombstones: generations tombstoned by Session.Expire — one
//     entry per expired generation. A tombstone names only *which*
//     generations left the sliding window; their per-cell padded
//     occupancy was disclosed once at append time, so expiry adds no
//     finer-grained information, just the window movement itself. Like
//     index deltas, tombstones are setup-class disclosures (recorded in
//     SetupLeakage, not per run) and travel on every session regardless
//     of pruning — the generation ledger is what keeps both parties'
//     caches invalidating in lockstep.
//   - IndexRetractions: individual records deleted by Session.Retract —
//     one entry per retracted point, on both sides. A point tombstone
//     names only the live index of a record that is leaving (an identity
//     the receiver already tracked); coordinates were never disclosed
//     and the record's padded cell footprint keeps answering as a dummy,
//     so retraction adds no spatial information. Like generation
//     tombstones, retractions are setup-class disclosures (recorded in
//     SetupLeakage, not per run) and travel on every session regardless
//     of pruning.
//
// OrderBits stays mechanical (it counts selection comparisons actually
// revealed); pruning strictly shrinks the selection set, so pruned runs
// record at most the unpruned OrderBits.
//
// # Accounting under the cross-run comparison cache
//
// A long-lived Session additionally caches decided predicates across
// runs (pair bits for the lockstep families, per-point prefix counts for
// the horizontal region queries): distances between unchanged points are
// immutable, so an incremental run re-issues secure comparisons only for
// predicates the cache cannot answer. The budget convention extends
// unchanged: a predicate served from the cache still records its
// decision-level entries (PairDecisions, NeighborCounts, MembershipBits,
// DotProducts) the moment the run first consults it, so an incremental
// run's non-index classes are byte-identical to a fresh session over the
// concatenated data — the incremental-equivalence harness enforces this —
// while Result.SecureComparisons (actual cryptographic work) shrinks and
// Result.CachedComparisons records what the cache supplied. The enhanced
// protocol is the exception, as under pruning: a cached core bit skips
// the whole share–select–compare exchange, so its mechanical OrderBits /
// CoreBits record at most the fresh run's.
type Ledger struct {
	NeighborCounts int
	MembershipBits int
	PairDecisions  int
	OrderBits      int
	CoreBits       int
	DotProducts    int

	IndexCells        int
	IndexPaddedPoints int
	IndexCellCoords   int
	IndexQueryCells   int
	IndexDeltaCells   int
	IndexTombstones   int
	IndexRetractions  int
}

// Add accumulates another ledger into l.
func (l *Ledger) Add(o Ledger) {
	l.NeighborCounts += o.NeighborCounts
	l.MembershipBits += o.MembershipBits
	l.PairDecisions += o.PairDecisions
	l.OrderBits += o.OrderBits
	l.CoreBits += o.CoreBits
	l.DotProducts += o.DotProducts
	l.IndexCells += o.IndexCells
	l.IndexPaddedPoints += o.IndexPaddedPoints
	l.IndexCellCoords += o.IndexCellCoords
	l.IndexQueryCells += o.IndexQueryCells
	l.IndexDeltaCells += o.IndexDeltaCells
	l.IndexTombstones += o.IndexTombstones
	l.IndexRetractions += o.IndexRetractions
}

// NonIndex returns a copy with the Index* classes zeroed — the view the
// pruning equivalence harness compares across modes.
func (l Ledger) NonIndex() Ledger {
	l.IndexCells = 0
	l.IndexPaddedPoints = 0
	l.IndexCellCoords = 0
	l.IndexQueryCells = 0
	l.IndexDeltaCells = 0
	l.IndexTombstones = 0
	l.IndexRetractions = 0
	return l
}

// String renders the non-zero entries compactly.
func (l Ledger) String() string {
	var parts []string
	add := func(name string, v int) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("neighborCounts", l.NeighborCounts)
	add("membershipBits", l.MembershipBits)
	add("pairDecisions", l.PairDecisions)
	add("orderBits", l.OrderBits)
	add("coreBits", l.CoreBits)
	add("dotProducts", l.DotProducts)
	add("indexCells", l.IndexCells)
	add("indexPaddedPoints", l.IndexPaddedPoints)
	add("indexCellCoords", l.IndexCellCoords)
	add("indexQueryCells", l.IndexQueryCells)
	add("indexDeltaCells", l.IndexDeltaCells)
	add("indexTombstones", l.IndexTombstones)
	add("indexRetractions", l.IndexRetractions)
	if len(parts) == 0 {
		return "ledger{}"
	}
	return "ledger{" + strings.Join(parts, " ") + "}"
}

// Result is a party's output from a protocol run.
type Result struct {
	// Labels holds cluster ids (≥ 1) or dbscan.Noise for the records this
	// party learns about: its own records for the horizontal protocols,
	// all records for the vertical and arbitrary protocols.
	Labels []int
	// NumClusters counts distinct cluster ids in Labels.
	NumClusters int
	// Leakage records the disclosures observed during the run.
	Leakage Ledger
	// SecureComparisons counts the comparison sub-protocol instances this
	// party executed (one per decided predicate, batched or not) — the
	// cryptographic-work metric bench gates exactly as core.secure_cmps.
	SecureComparisons int64
	// CachedComparisons counts the predicates this run answered from the
	// session's cross-run comparison cache instead of executing a secure
	// comparison: reused pair bits in the lockstep families, cached
	// prefix memberships in the horizontal region queries, and reused
	// core bits in the enhanced protocol. Zero on a session's first run;
	// the bench `live` workload tracks it against SecureComparisons
	// (core.cached_cmps, core.cache_hit_ratio).
	CachedComparisons int64
	// CiphertextsSent counts the Paillier ciphertexts this party put on
	// the wire during the run — homomorphic payloads of the masked
	// comparison engine and the masked-product/dot-product exchanges.
	// This is the quantity slot packing (Config.Packing) compresses and
	// the metric bench records per leg (core.cts_up, core.cts_down)
	// alongside wire_mb. YMPP RSA payloads are not counted. Always equal to
	// CiphertextsUplink + CiphertextsDownlink; retained as the
	// compatibility sum.
	CiphertextsSent int64
	// CiphertextsUplink is the request-leg share of CiphertextsSent: the
	// operand ciphertexts that open a sub-protocol (comparison uplinks,
	// the encrypted vectors an mpc receiver scatters). "full" packing
	// exists to shrink this leg.
	CiphertextsUplink int64
	// CiphertextsDownlink is the response-leg share of CiphertextsSent:
	// masked replies computed against a peer's operands (comparison
	// replies, masked-product and dot-product responses). "slots"
	// packing shrinks this leg.
	CiphertextsDownlink int64
}
