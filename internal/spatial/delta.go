package spatial

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/transport"
)

// Incremental (streaming) support for the candidate index. A long-lived
// session that absorbs appended points must not rebuild and re-exchange
// its whole directory per batch: instead each append becomes one
// *generation* — an immutable grid + padded directory over just that
// batch — and what crosses the wire is a GridDelta naming only the cells
// the batch touched. The effective index is the generation stack: a
// cell's disclosed occupancy is the sum of its per-generation padded
// counts, and a region query that already holds cached answers for
// generations [0, from) runs its cryptographic phases against
// generations [from, …) only.
//
// Padding is per generation by construction: a batch of b points
// discloses pad(b_c) per touched cell c, exactly what a fresh directory
// over that batch alone would disclose — so the delta leaks occupancy at
// the same quantum granularity as the initial exchange, never finer.
// The cost is that the stacked padded total can exceed the single-grid
// padded total (each generation rounds up separately); the equivalence
// harness therefore treats padded sizes as index-class state, while
// labels and decision-level budgets stay byte-identical.
//
// Sliding windows age generations out the other end: Expire tombstones
// the oldest k generations and compacts them away. Generation numbering
// stays absolute — generation g keeps its number for the stack's whole
// life — but expired generations answer like empty ones (a husk
// directory, a zero-width index range), and the global point indices of
// the surviving points are rebased to 0 so the live window is always a
// contiguous [0, Total()) range. Expiry discloses only which
// generations died (their padded sizes were already public from the
// original delta), never which points they held.
//
// Point-level retraction deletes individual records from the middle of
// live generations: Retract masks the named slots, the surviving global
// indices compact immediately (so [0, Total()) always spans exactly the
// surviving points), and the generation's *disclosed* directory is left
// untouched — a masked slot simply answers as one more dummy in pruned
// queries, so per-query wire sizes never change and the only disclosure
// is the PointTombstone itself. Once a generation's occupancy falls
// below compactOccupancy, its grid is compacted in place (masked slots
// dropped, survivors renumbered) while the directory keeps disclosing
// the original padded counts.

// ErrGenRange reports a generation index outside the stack's absolute
// range. A malformed peer watermark surfaces as this error on the
// serving goroutine, never as a panic.
var ErrGenRange = errors.New("spatial: generation index out of range")

// Stack is one party's generational view of its own data: an append-only
// sequence of (grid, directory) pairs over batches of points, with global
// point indices assigned contiguously in append order. Expire removes the
// oldest generations; the survivors' indices are rebased so [0, Total())
// always spans exactly the live window.
type Stack struct {
	W       int64
	Dim     int
	Quantum int

	dead int // expired prefix generations, compacted away
	gens []stackGen
}

type stackGen struct {
	start int // global index of the generation's first point
	n     int // slots (original batch size, until compaction)
	live  int // unmasked slots still serving
	// masked marks retracted slots; nil when every slot is live. rank is
	// the live renumbering per slot (number of live slots before it),
	// maintained whenever masked is non-nil.
	masked []bool
	rank   []int
	grid   *Grid
	dir    Directory
}

// liveSlots returns the slot indices of the generation's live points in
// live order.
func (g *stackGen) liveSlots() []int {
	out := make([]int, 0, g.live)
	for j := 0; j < g.n; j++ {
		if g.masked == nil || !g.masked[j] {
			out = append(out, j)
		}
	}
	return out
}

// rerank rebuilds the live renumbering after masking changed.
func (g *stackGen) rerank() {
	g.rank = make([]int, g.n)
	r := 0
	for j := 0; j < g.n; j++ {
		g.rank[j] = r
		if !g.masked[j] {
			r++
		}
	}
}

// compactOccupancy is the occupancy threshold below which a retraction
// compacts the generation in place: once fewer than half the slots are
// live, the grid drops its masked slots and renumbers the survivors
// contiguously. The disclosed directory is never rebuilt — its padded
// counts stay exactly what the append-time delta disclosed.
const compactOccupancy = 0.5

// compact drops the masked slots from the generation's grid and
// renumbers the survivors; the directory is deliberately untouched.
func (g *stackGen) compact() {
	for k, js := range g.grid.cells {
		kept := make([]int, 0, len(js))
		for _, j := range js {
			if !g.masked[j] {
				kept = append(kept, g.rank[j])
			}
		}
		if len(kept) == 0 {
			delete(g.grid.cells, k)
			delete(g.grid.coord, k)
		} else {
			g.grid.cells[k] = kept
		}
	}
	g.n = g.live
	g.masked = nil
	g.rank = nil
}

// NewStack builds an empty generation stack for points of the given
// dimension on a grid of side w with the given padding quantum.
func NewStack(w int64, dim, quantum int) (*Stack, error) {
	if w < 1 {
		return nil, fmt.Errorf("spatial: cell width %d < 1", w)
	}
	if dim < 1 {
		return nil, fmt.Errorf("spatial: dimension %d < 1", dim)
	}
	if quantum < 1 {
		quantum = 1
	}
	return &Stack{W: w, Dim: dim, Quantum: quantum}, nil
}

// Gens reports the number of generations appended so far, including
// expired ones — generation numbering is absolute for the stack's life.
func (s *Stack) Gens() int { return s.dead + len(s.gens) }

// Dead reports how many prefix generations have been expired.
func (s *Stack) Dead() int { return s.dead }

// Total reports the live point count: expired generations' points are
// compacted away and the survivors rebased, so indices [0, Total())
// always name exactly the window's points.
func (s *Stack) Total() int {
	if len(s.gens) == 0 {
		return 0
	}
	last := s.gens[len(s.gens)-1]
	return last.start + last.live
}

// Dir returns generation g's padded directory — the exact payload the
// owning party disclosed for that generation. An expired generation
// returns an empty husk (it no longer occupies any cell); an index
// outside [0, Gens()) returns ErrGenRange.
func (s *Stack) Dir(g int) (Directory, error) {
	if g < 0 || g >= s.Gens() {
		return Directory{}, fmt.Errorf("%w: directory %d of %d", ErrGenRange, g, s.Gens())
	}
	if g < s.dead {
		return Directory{Dim: s.Dim, byKey: map[string]int{}}, nil
	}
	return s.gens[g-s.dead].dir, nil
}

// GenStart returns the global index of generation g's first live point;
// GenStart(Gens()) is Total(), so [GenStart(g), GenStart(g+1)) always
// spans generation g. Expired generations are empty ranges at index 0.
// An index outside [0, Gens()] returns ErrGenRange.
func (s *Stack) GenStart(g int) (int, error) {
	if g < 0 || g > s.Gens() {
		return 0, fmt.Errorf("%w: start of generation %d of %d", ErrGenRange, g, s.Gens())
	}
	if g <= s.dead {
		return 0, nil
	}
	if g == s.Gens() {
		return s.Total(), nil
	}
	return s.gens[g-s.dead].start, nil
}

// Append buckets one batch of points (possibly empty) as the next
// generation and returns its padded directory — the delta the owning
// party sends to its peers. Point indices continue from the previous
// generation's end.
func (s *Stack) Append(points [][]int64) (Directory, error) {
	for i, p := range points {
		if len(p) != s.Dim {
			return Directory{}, fmt.Errorf("spatial: append point %d has %d coordinates, want %d", i, len(p), s.Dim)
		}
	}
	g, err := NewGrid(points, s.W)
	if err != nil {
		return Directory{}, err
	}
	d := g.Directory(s.Quantum)
	// An empty batch yields a dimensionless grid; pin the directory to the
	// stack's dimension so the wire codec stays self-consistent.
	d.Dim = s.Dim
	if d.byKey == nil {
		d.byKey = map[string]int{}
	}
	s.gens = append(s.gens, stackGen{start: s.Total(), n: len(points), live: len(points), grid: g, dir: d})
	return d, nil
}

// Expire tombstones the oldest k live generations and compacts them
// away: their points vanish, the surviving points are rebased to start
// at 0, and the dead generations thereafter answer as empty (husk
// directories, zero-width ranges). Returns how many points were
// removed. Expiring all live generations leaves a valid empty window.
func (s *Stack) Expire(k int) (removed int, err error) {
	if k < 0 || k > len(s.gens) {
		return 0, fmt.Errorf("%w: expire %d of %d live generations", ErrGenRange, k, len(s.gens))
	}
	for g := 0; g < k; g++ {
		removed += s.gens[g].live
	}
	live := make([]stackGen, len(s.gens)-k)
	copy(live, s.gens[k:])
	for i := range live {
		live[i].start -= removed
	}
	s.gens = live
	s.dead += k
	return removed, nil
}

// ValidateRetractIDs checks a retraction id list against a live point
// count: strictly ascending indices inside [0, total). Every retraction
// consumer — Stack.Retract, the wire decoder, and the protocol layers
// without a stack of their own (pruning off, lockstep families) — shares
// this rule, so over-retraction surfaces as the same typed error
// everywhere.
func ValidateRetractIDs(ids []int, total int) error {
	if len(ids) > total {
		return fmt.Errorf("%w: retract %d of %d live points", ErrGenRange, len(ids), total)
	}
	for i, id := range ids {
		if id < 0 || id >= total {
			return fmt.Errorf("%w: retract index %d outside live range [0,%d)", ErrGenRange, id, total)
		}
		if i > 0 && id <= ids[i-1] {
			return fmt.Errorf("spatial: retract indices not strictly ascending at %d", id)
		}
	}
	return nil
}

// Retract masks the given live point indices (strictly ascending, in the
// current [0, Total()) numbering) out of their generations. The
// surviving indices compact immediately — after Retract, [0, Total())
// spans exactly the surviving points — while each generation's disclosed
// directory is untouched: a masked slot keeps its padded footprint and
// answers as a dummy, so retraction changes no per-query wire sizes.
// A generation whose occupancy drops below compactOccupancy is compacted
// in place. Retracting every point of a generation leaves a valid
// zero-occupancy generation that serves all-dummy answers.
func (s *Stack) Retract(ids []int) error {
	if err := ValidateRetractIDs(ids, s.Total()); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	// Partition ids by generation against the pre-retraction numbering,
	// then mask via each generation's pre-retraction live slot order.
	next := 0
	for gi := range s.gens {
		gen := &s.gens[gi]
		end := gen.start + gen.live
		if next >= len(ids) || ids[next] >= end {
			continue
		}
		slots := gen.liveSlots()
		if gen.masked == nil {
			gen.masked = make([]bool, gen.n)
		}
		for next < len(ids) && ids[next] < end {
			gen.masked[slots[ids[next]-gen.start]] = true
			gen.live--
			next++
		}
		gen.rerank()
		if float64(gen.live) < compactOccupancy*float64(gen.n) {
			gen.compact()
		}
	}
	// Rebase the surviving global indices to a contiguous [0, Total()).
	start := 0
	for gi := range s.gens {
		s.gens[gi].start = start
		start += s.gens[gi].live
	}
	return nil
}

// GenOccupancy reports generation g's live and slot counts — the
// occupancy retraction tracks. Expired generations report 0/0; an index
// outside [0, Gens()) returns ErrGenRange. After a compaction the two
// counts re-converge (masked slots are physically dropped).
func (s *Stack) GenOccupancy(g int) (live, slots int, err error) {
	if g < 0 || g >= s.Gens() {
		return 0, 0, fmt.Errorf("%w: occupancy of generation %d of %d", ErrGenRange, g, s.Gens())
	}
	if g < s.dead {
		return 0, 0, nil
	}
	gen := s.gens[g-s.dead]
	return gen.live, gen.n, nil
}

// GenOf maps a live global index to its generation's absolute number —
// how a retraction id names the generation whose caches it invalidates.
func (s *Stack) GenOf(id int) (int, error) {
	if id < 0 || id >= s.Total() {
		return 0, fmt.Errorf("%w: point %d outside live range [0,%d)", ErrGenRange, id, s.Total())
	}
	for gi := range s.gens {
		if id < s.gens[gi].start+s.gens[gi].live {
			return s.dead + gi, nil
		}
	}
	return 0, fmt.Errorf("%w: point %d outside live range [0,%d)", ErrGenRange, id, s.Total())
}

// ResolveRange is ResolveSpan over the open suffix [from, Gens()).
func (s *Stack) ResolveRange(from int, cells [][]int64) (members []int, nDummy int, err error) {
	return s.ResolveSpan(from, s.Gens(), cells)
}

// ResolveSpan is the responder half of a generation-scoped pruned query:
// it validates an announced candidate-cell list against the generations
// [from, to) and resolves it to the member point indices (global,
// generation-major) plus the number of dummy entries padding the batch to
// the disclosed stacked counts. A cell must be occupied in at least one
// live generation of the span; expired generations contribute
// nothing. from and to are absolute, with 0 ≤ from ≤ to ≤ Gens().
func (s *Stack) ResolveSpan(from, to int, cells [][]int64) (members []int, nDummy int, err error) {
	if from < 0 || to > s.Gens() || from > to {
		return nil, 0, fmt.Errorf("spatial: resolve span %d..%d of %d generations", from, to, s.Gens())
	}
	first, last := from-s.dead, to-s.dead
	if first < 0 {
		first = 0
	}
	if last < 0 {
		last = 0
	}
	prev := ""
	padded := 0
	for i, c := range cells {
		k := Key(c)
		if len(c) != s.Dim {
			return nil, 0, fmt.Errorf("spatial: query cell %d has %d coordinates, want %d", i, len(c), s.Dim)
		}
		if i > 0 && k <= prev {
			return nil, 0, fmt.Errorf("spatial: query cells out of canonical order")
		}
		prev = k
		occupied := false
		for g := first; g < last; g++ {
			gen := s.gens[g]
			if p := gen.dir.Count(c); p > 0 {
				occupied = true
				padded += p
				for _, j := range gen.grid.PointsIn(c) {
					if gen.masked != nil {
						if gen.masked[j] {
							continue // retracted: answers as one more dummy
						}
						j = gen.rank[j]
					}
					members = append(members, gen.start+j)
				}
			}
		}
		if !occupied {
			return nil, 0, fmt.Errorf("spatial: query names cell %v unoccupied in generations %d..%d", c, from, to)
		}
	}
	return members, padded - len(members), nil
}

// CandidatesRange is CandidatesSpan over the open suffix [from, len(dirs)).
func CandidatesRange(dirs []Directory, from int, cell []int64) (cells [][]int64, total int) {
	return CandidatesSpan(dirs, from, len(dirs), cell)
}

// CandidatesSpan is the driver half over a peer's generation
// directories: the union of the per-generation candidate cells adjacent
// to the query cell across dirs[from:to], in canonical order, plus their
// stacked padded total — the exact number of MP/comparison instances a
// generation-scoped pruned query will run. Expired generations are kept
// in dirs as empty husks, so they contribute no candidates.
func CandidatesSpan(dirs []Directory, from, to int, cell []int64) (cells [][]int64, total int) {
	seen := make(map[string][]int64)
	for g := from; g < to; g++ {
		cs, t := dirs[g].Candidates(cell)
		total += t
		for _, c := range cs {
			seen[Key(c)] = c
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cells = make([][]int64, len(keys))
	for i, k := range keys {
		cells[i] = seen[k]
	}
	return cells, total
}

// GridDelta is the wire form of one index append: the 1-based generation
// number it creates plus the padded directory of just the appended batch.
// The generation number pins ordering — a delta applied out of sequence
// is a protocol error, not a silent index divergence.
type GridDelta struct {
	Gen int
	Dir Directory
}

// Encode appends the delta to a wire message.
func (d GridDelta) Encode(b *transport.Builder) *transport.Builder {
	b.PutUint(uint64(d.Gen))
	return d.Dir.Encode(b)
}

// DecodeGridDelta parses and validates a delta: the generation number
// must be exactly wantGen (the receiver's next expected generation), and
// the embedded directory must satisfy every invariant of the initial
// index exchange (dimension, canonical cell order, positive
// quantum-multiple counts). An empty directory is valid — a party may
// append no points of its own while its peer appends.
func DecodeGridDelta(r *transport.Reader, dim, quantum, wantGen int) (GridDelta, error) {
	gen := int(r.Uint())
	if err := r.Err(); err != nil {
		return GridDelta{}, err
	}
	if gen != wantGen {
		return GridDelta{}, fmt.Errorf("spatial: delta for generation %d, want %d", gen, wantGen)
	}
	d, err := DecodeDirectory(r, dim, quantum)
	if err != nil {
		return GridDelta{}, fmt.Errorf("spatial: delta directory: %w", err)
	}
	return GridDelta{Gen: gen, Dir: d}, nil
}

// TombstoneDelta is the wire form of one window expiry: the 0-based
// absolute index of the first expired generation (which must equal the
// receiver's current dead count — expiry is strictly prefix-order) plus
// how many generations die. Only generation identities cross the wire;
// their contents were disclosed once, at append time, and the tombstone
// adds nothing at finer granularity.
type TombstoneDelta struct {
	From int
	N    int
}

// Encode appends the tombstone to a wire message.
func (d TombstoneDelta) Encode(b *transport.Builder) *transport.Builder {
	return b.PutUint(uint64(d.From)).PutUint(uint64(d.N))
}

// DecodeTombstoneDelta parses and validates a tombstone: From must be
// exactly wantFrom (the receiver's current dead-generation count, so
// expiries apply in prefix order), and N must name between 1 and
// liveGens generations — a peer cannot expire generations it never
// appended, nor more than the live window holds.
func DecodeTombstoneDelta(r *transport.Reader, wantFrom, liveGens int) (TombstoneDelta, error) {
	from := int(r.Uint())
	n := int(r.Uint())
	if err := r.Err(); err != nil {
		return TombstoneDelta{}, err
	}
	if from != wantFrom {
		return TombstoneDelta{}, fmt.Errorf("spatial: tombstone from generation %d, want %d", from, wantFrom)
	}
	if n < 1 || n > liveGens {
		return TombstoneDelta{}, fmt.Errorf("spatial: tombstone for %d of %d live generations", n, liveGens)
	}
	return TombstoneDelta{From: from, N: n}, nil
}

// PointTombstone is the wire form of one point-level retraction: the
// strictly ascending live global indices (in the sender's current
// [0, Total()) numbering) of the records being deleted. Only identities
// cross the wire — coordinates were never disclosed and stay that way;
// the receiver derives each id's generation from the public per-
// generation counts and masks its caches accordingly. An empty tombstone
// is valid (a party participating in a symmetric retraction exchange
// with nothing of its own to delete).
type PointTombstone struct {
	IDs []int
}

// Encode appends the tombstone to a wire message.
func (d PointTombstone) Encode(b *transport.Builder) *transport.Builder {
	b.PutUint(uint64(len(d.IDs)))
	for _, id := range d.IDs {
		b.PutUint(uint64(id))
	}
	return b
}

// DecodePointTombstone parses and validates a point tombstone against
// the sender's live point count as the receiver tracks it: at most total
// ids, strictly ascending, inside [0, total). A hostile or stale frame
// surfaces as an error on the serving goroutine, never as a panic or a
// silent index divergence.
func DecodePointTombstone(r *transport.Reader, total int) (PointTombstone, error) {
	n := int(r.Uint())
	if err := r.Err(); err != nil {
		return PointTombstone{}, err
	}
	// Each id needs at least one byte, so a count beyond the buffer is a
	// corrupt frame, not a giant allocation.
	if n < 0 || n > r.Remaining() {
		return PointTombstone{}, fmt.Errorf("spatial: tombstone id count %d exceeds message size", n)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = int(r.Uint())
	}
	if err := r.Err(); err != nil {
		return PointTombstone{}, err
	}
	if err := ValidateRetractIDs(ids, total); err != nil {
		return PointTombstone{}, err
	}
	return PointTombstone{IDs: ids}, nil
}
