package core

import (
	"fmt"
	"sync"

	"repro/internal/fixedpoint"
	"repro/internal/spatial"
)

// Generation tables. A session's dataset grows by appends (one generation
// each; generation 0 is the construction-time dataset), shrinks from the
// old end by expiries and in the middle by retractions, and there is one
// table per session shape, each the only place its shape's lifecycle
// arithmetic is written. The horizontal shape splits the bookkeeping by
// whose points it describes: one OwnGens per party, one PeerGens per peer
// — a two-party session is 1 own + 1 peer, a k-party mesh 1 own + k−1
// peers. The shared-row shape (vertical, arbitrary, the k-party ring)
// holds the same records on every party and keeps one RowGens. Generation
// numbering is absolute for the session's life: expired generations keep
// their slots as husks (zero counts, empty directories), so every
// participant agrees on any generation watermark.
//
// Cache soundness rests on distance immutability and count monotonicity:
// appends only add points, so (a) the number of peer points within Eps of
// an unchanged point, restricted to an unchanged peer generation range,
// never changes — the hdp CountCache's per-run segments are permanently
// valid for the ranges they cover — and (b) neighbour counts only grow
// under appends, so an enhanced core bit that was true stays true, while
// a false bit is reusable only while both datasets are unchanged (enh
// entries carry the sizes they were decided under). Expiry and retraction
// break the monotone direction — removing points can flip a true core bit
// false — so they clear enh entirely, drop hdp segments that include
// removed peer points, and remap own point indices onto the compacted
// live window.

// OwnGens is a party's own-side generation table: its encoded live
// points, where each generation starts, the expired prefix, and (under
// grid pruning) the one spatial.Stack of per-generation grids and padded
// directories every peer is served from.
type OwnGens struct {
	Enc   [][]int64 // live points, window generations, append order
	Start []int     // per-generation start in Enc (dead gens clamped to 0)
	Dead  int       // expired generations

	cfg   Config
	dim   int
	stack *spatial.Stack // nil until the first index exchange builds it
}

// NewOwnGens encodes a party's construction-time points as generation 0.
// cfg must be normalised (Config.Normalize).
func NewOwnGens(cfg Config, points [][]float64) (*OwnGens, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("core: the horizontal protocols require at least one point per party")
	}
	o := &OwnGens{Start: []int{0}, cfg: cfg, dim: len(points[0])}
	var err error
	o.Enc, err = o.Encode(points)
	return o, err
}

// Encode validates and fixed-point encodes one batch of this party's
// points (possibly empty) against the table's dimension.
func (o *OwnGens) Encode(points [][]float64) ([][]int64, error) {
	batch, err := o.cfg.EncodePoints(points)
	if err != nil {
		return nil, err
	}
	for i, p := range batch {
		if len(p) != o.dim {
			return nil, fmt.Errorf("core: point %d has %d attributes, want %d", i, len(p), o.dim)
		}
	}
	return batch, nil
}

// Gens reports the number of generations, dead ones included.
func (o *OwnGens) Gens() int { return len(o.Start) }

// Window reports the expired prefix and the number of live generations —
// what an expiry tombstone is validated against.
func (o *OwnGens) Window() (dead, live int) { return o.Dead, len(o.Start) - o.Dead }

// Span returns the live points of generations [from, to).
func (o *OwnGens) Span(from, to int) [][]int64 {
	end := len(o.Enc)
	if to < len(o.Start) {
		end = o.Start[to]
	}
	return o.Enc[o.Start[from]:end]
}

// RegionQuery returns the indices of the own points within epsSq of point
// i, including i itself (SetOfPointsOfAlice.regionQuery).
func (o *OwnGens) RegionQuery(i int, epsSq int64) []int {
	var out []int
	for j := range o.Enc {
		if fixedpoint.DistSq(o.Enc[i], o.Enc[j]) <= epsSq {
			out = append(out, j)
		}
	}
	return out
}

// index returns generation 0's padded directory, building the stack over
// the current points on first use (a mesh party indexes once and serves
// the same directory to every peer).
func (o *OwnGens) index(cellW int64) (spatial.Directory, error) {
	if o.stack == nil {
		st, err := spatial.NewStack(cellW, o.dim, o.cfg.PruneQuantum)
		if err != nil {
			return spatial.Directory{}, err
		}
		if _, err := st.Append(o.Enc); err != nil {
			return spatial.Directory{}, err
		}
		o.stack = st
	}
	return o.stack.Dir(0)
}

// Append absorbs one encoded batch as the next generation and returns its
// padded directory — the index delta the peers receive (zero when no
// index is kept).
func (o *OwnGens) Append(batch [][]int64) (delta spatial.Directory, err error) {
	if o.stack != nil {
		if delta, err = o.stack.Append(batch); err != nil {
			return delta, fmt.Errorf("core: index delta build: %w", err)
		}
	}
	o.Start = append(o.Start, len(o.Enc))
	o.Enc = append(o.Enc, batch...)
	return delta, nil
}

// Expire retires the gens oldest live generations: their points compact
// out of Enc and the index, the survivors rebase to start at 0. It
// returns how many own points left — what every peer table's cache remaps
// by.
func (o *OwnGens) Expire(gens int) (removed int, err error) {
	if o.stack != nil {
		if _, err := o.stack.Expire(gens); err != nil {
			return 0, fmt.Errorf("core: expire index: %w", err)
		}
	}
	end := o.Dead + gens
	removed = len(o.Enc)
	if end < len(o.Start) {
		removed = o.Start[end]
	}
	o.Enc = o.Enc[removed:]
	for g := range o.Start {
		if g < end {
			o.Start[g] = 0
		} else {
			o.Start[g] -= removed
		}
	}
	o.Dead = end
	return removed, nil
}

// Retract deletes the own points at the given live indices (validated:
// strictly ascending, in range). The index masks their slots — disclosed
// directories are untouched and masked slots keep answering as dummies,
// so per-query wire sizes never change — and Enc compacts onto exactly
// the numbering a fresh session over the survivors would use.
func (o *OwnGens) Retract(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	if o.stack != nil {
		if err := o.stack.Retract(ids); err != nil {
			return fmt.Errorf("core: retract index: %w", err)
		}
	}
	o.Enc = CompactRows(o.Enc, ids)
	for g := o.Dead; g < len(o.Start); g++ {
		o.Start[g] -= countBelow(ids, o.Start[g])
	}
	return nil
}

// CompactRows deletes the rows at the given indices (strictly ascending,
// in range) from any per-record matrix, in place and in order — the one
// row compaction every family applies to the matrices it owns.
func CompactRows[T any](rows []T, ids []int) []T {
	out, next := rows[:0], 0
	for i, row := range rows {
		if next < len(ids) && ids[next] == i {
			next++
			continue
		}
		out = append(out, row)
	}
	return out
}

// retractCounts is the one place retracted ids become generation
// decrements: each id (validated: strictly ascending, in the
// pre-retraction live numbering, which concatenates the live generations
// in order — dead ones hold zero) lowers its generation's live count. It
// reports which generations lost records.
func retractCounts(count []int, ids []int) (affected map[int]bool) {
	affected = make(map[int]bool)
	g, end := -1, 0 // end: pre-retraction end of generation g in the live numbering
	for _, id := range ids {
		for id >= end {
			g++
			end += count[g]
		}
		count[g]--
		affected[g] = true
	}
	return affected
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

// PeerGens is one party's view of one peer's generations: the live point
// count of each, the directories the peer disclosed (under grid pruning),
// and the cross-run caches keyed by our own point index — the HDP
// region-count segments over the peer's generations and the enhanced
// protocol's core bits.
type PeerGens struct {
	Count []int // per-generation live peer counts (dead gens zeroed)
	N     int   // live peer count (Σ Count)
	dirs  []spatial.Directory

	// mu guards the caches: a wave's workers decide distinct points
	// concurrently but share the maps.
	mu  sync.Mutex
	hdp *CountCache
	enh map[int]enhEntry

	// pre is per-run state of the settle step (settle.go): for each own
	// point, the first generation its cached chain did not reach before
	// this run's Settle — what the point's first walk query reports as
	// cached. Settled advances it to the chain's end, so a re-query counts
	// fully cached. The walk is sequential.
	pre []int
}

// enhEntry caches one driver point's core bit plus the dataset sizes it
// was decided under (see the monotonicity note above).
type enhEntry struct {
	core  bool
	ownN  int
	peerN int
}

func newPeerGens(n int) *PeerGens {
	return &PeerGens{Count: []int{n}, N: n, hdp: NewCountCache(), enh: make(map[int]enhEntry)}
}

// Suffix counts the live peer points in generations [from, …).
func (p *PeerGens) Suffix(from int) int {
	n := 0
	for _, c := range p.Count[from:] {
		n += c
	}
	return n
}

// Covered reads the region-count cache for own point i: the cached count
// over the live generation prefix [dead, upto) plus the first uncovered
// generation.
func (p *PeerGens) Covered(i, dead int) (count, upto int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hdp.Covered(i, dead)
}

// Extend records a fresh count for own point i over generations
// [from, to).
func (p *PeerGens) Extend(i, from, to, count int) {
	p.mu.Lock()
	p.hdp.Extend(i, from, to, count)
	p.mu.Unlock()
}

// Settled answers one walk query of own point i from the cache a Settle of
// this run completed: the count over every live generation, and how many
// of the peer's live points were covered before that Settle ran — all of
// them from the point's second query on.
func (p *PeerGens) Settled(i, dead int) (count, cached int) {
	count, upto := p.Covered(i, dead)
	cached = p.N - p.Suffix(p.pre[i])
	p.pre[i] = upto
	return count, cached
}

func (p *PeerGens) getEnh(i int) (enhEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.enh[i]
	return e, ok
}

func (p *PeerGens) putEnh(i int, e enhEntry) {
	p.mu.Lock()
	p.enh[i] = e
	p.mu.Unlock()
}

// Append records the peer's next generation of count points.
func (p *PeerGens) Append(count int) {
	p.Count = append(p.Count, count)
	p.N += count
}

// Expire absorbs an expiry of generations [from, from+gens) on both
// sides: the peer's dead generations answer as empty husks from now on,
// and the caches follow our own ownRemoved compacted points — hdp entries
// rebase, and the enhanced core bits (which expiry can flip false, and
// whose recorded sizes no longer describe the window) clear.
func (p *PeerGens) Expire(from, gens, ownRemoved int) {
	for g := from; g < from+gens; g++ {
		p.N -= p.Count[g]
		p.Count[g] = 0
		if p.dirs != nil {
			p.dirs[g] = spatial.Directory{Dim: p.dirs[g].Dim}
		}
	}
	p.mu.Lock()
	p.hdp.Remap(ownRemoved)
	p.enh = make(map[int]enhEntry)
	p.mu.Unlock()
}

// Retract absorbs one retraction on both sides (id lists validated:
// strictly ascending, in live range): the peer's retracted points
// decrement their generations' live counts, and every cache entry
// touching a retracted point dies — hdp entries of our own retracted
// points vanish and survivors remap by rank, cached segments covering a
// peer generation that lost points are dropped for re-derivation, and
// the enhanced core bits, not monotone under deletion, clear.
func (p *PeerGens) Retract(ownIDs, peerIDs []int) {
	if len(ownIDs) == 0 && len(peerIDs) == 0 {
		return
	}
	affected := retractCounts(p.Count, peerIDs)
	p.N -= len(peerIDs)
	p.mu.Lock()
	p.hdp.RetractOwn(ownIDs)
	p.hdp.DropGens(affected)
	p.enh = make(map[int]enhEntry)
	p.mu.Unlock()
}

// RowGens is the generation table of the shared-row shape: every party
// holds (its part of) the same records and learns the same public
// within-Eps bit per record pair, so every party keeps an identical
// table — the live record count of each generation, the full per-record
// cell rows under grid pruning, and the cross-run PairCache — and applies
// every lifecycle step identically. The record matrices themselves stay
// with the family (their shapes differ); Expire and Retract tell it which
// rows left and it follows with a slice or CompactRows.
type RowGens struct {
	Count    []int     // per-generation live record counts (dead gens zeroed)
	Dead     int       // expired generations
	N        int       // live records (Σ Count)
	CellRows [][]int64 // per-record cell rows; nil with pruning off
	Cache    *PairCache
}

// NewRowGens starts the table at generation 0: the n construction-time
// records and, under grid pruning, their cell rows.
func NewRowGens(n int, cells [][]int64) *RowGens {
	return &RowGens{Count: []int{n}, N: n, CellRows: cells, Cache: NewPairCache()}
}

// Window reports the expired prefix and the number of live generations.
func (g *RowGens) Window() (dead, live int) { return g.Dead, len(g.Count) - g.Dead }

// Append records the next generation of n records (cells: their cell rows
// under pruning). Cached bits stay valid — distances are immutable — so
// the next run pays only for pairs touching the new records.
func (g *RowGens) Append(n int, cells [][]int64) {
	g.Count = append(g.Count, n)
	g.N += n
	g.CellRows = append(g.CellRows, cells...)
}

// Expire retires the gens oldest live generations (validated against
// Window) and returns how many records — the oldest rows of every
// per-record matrix — left with them. The cache drops every bit touching
// an expired record and shifts the survivors onto the compacted indices.
func (g *RowGens) Expire(gens int) (rows int) {
	for end := g.Dead + gens; g.Dead < end; g.Dead++ {
		rows += g.Count[g.Dead]
		g.Count[g.Dead] = 0
	}
	g.N -= rows
	if g.CellRows != nil {
		g.CellRows = g.CellRows[rows:]
	}
	g.Cache.Expire(rows)
	return rows
}

// Retract deletes the records at the given live indices (validated:
// strictly ascending, below N): their generations' counts shrink, the
// cell rows compact, and the cache drops every bit touching a retracted
// record while the survivors shift down by rank.
func (g *RowGens) Retract(ids []int) {
	retractCounts(g.Count, ids)
	g.N -= len(ids)
	g.CellRows = CompactRows(g.CellRows, ids)
	g.Cache.Retract(ids)
}
