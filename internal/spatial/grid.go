// Package spatial provides the Eps-grid candidate index behind
// Config.Pruning: points bucketed into axis-aligned cells of side
// CellWidth(Eps²), padded per-cell occupancy directories that parties may
// exchange, and the neighbor-cell enumeration that turns a region query
// into a candidate set of at most 3^d cells.
//
// The geometric contract every consumer relies on: with cell width
// W = CellWidth(epsSq), two points with dist² ≤ epsSq always land in
// Adjacent cells (per-axis cell coordinates differing by at most 1), so
// pruning non-adjacent cells never drops a true neighbour. The converse
// does not hold — adjacent cells may contain points farther than Eps —
// which is exactly why pruning changes only how many secure comparisons
// run, never their outcomes.
//
// Everything here is plaintext bookkeeping over one party's own data; what
// crosses the wire (directories, candidate-cell announcements) is decided
// by the protocol layers, which account for each disclosure in the
// core.Ledger Index* classes.
package spatial

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/transport"
)

// CellWidth returns the smallest cell side W ≥ 1 with W² ≥ epsSq, i.e.
// the narrowest grid for which Eps-neighbours are always in adjacent
// cells. Negative epsSq (never produced by the codecs) is treated as 0.
func CellWidth(epsSq int64) int64 {
	if epsSq <= 1 {
		return 1
	}
	w := int64(math.Sqrt(float64(epsSq)))
	// Float sqrt can land one off in either direction near perfect squares;
	// settle exactly.
	for w > 1 && (w-1)*(w-1) >= epsSq {
		w--
	}
	for w*w < epsSq {
		w++
	}
	return w
}

// Bucket returns the cell coordinates of p on a grid of side w: per axis,
// floor(x/w). Works for negative coordinates (floor, not truncation).
func Bucket(p []int64, w int64) []int64 {
	c := make([]int64, len(p))
	for i, x := range p {
		c[i] = BucketCoord(x, w)
	}
	return c
}

// BucketCoord is the single-axis Bucket: floor(x/w).
func BucketCoord(x, w int64) int64 {
	if w < 1 {
		panic("spatial: cell width < 1")
	}
	q := x / w
	if x%w != 0 && x < 0 {
		q--
	}
	return q
}

// Adjacent reports whether two cells differ by at most 1 on every axis
// (a cell is adjacent to itself). Cells of different dimension are never
// adjacent. The check is overflow-safe for extreme cell coordinates.
func Adjacent(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		// a-b overflows only when the operands have opposite signs and are
		// astronomically far apart; any overflow case is non-adjacent.
		if (a[i] > 0) != (b[i] > 0) && (d > 0) != (a[i] > b[i]) {
			return false
		}
		if d < -1 || d > 1 {
			return false
		}
	}
	return true
}

// Key renders cell coordinates as a canonical map key.
func Key(c []int64) string {
	b := make([]byte, 0, len(c)*6)
	for _, v := range c {
		b = appendInt64(b, v)
		b = append(b, ';')
	}
	return string(b)
}

func appendInt64(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		if v == math.MinInt64 {
			// -v would overflow; spell the magnitude digit by digit.
			return append(b, []byte("9223372036854775808")...)
		}
		v = -v
	}
	if v >= 10 {
		b = appendInt64(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// Grid is one party's bucketing of its own points.
type Grid struct {
	W     int64
	Dim   int
	cells map[string][]int // point indices per occupied cell
	coord map[string][]int64
}

// NewGrid buckets points (all of dimension dim) into cells of side w.
func NewGrid(points [][]int64, w int64) (*Grid, error) {
	if w < 1 {
		return nil, fmt.Errorf("spatial: cell width %d < 1", w)
	}
	g := &Grid{W: w, cells: make(map[string][]int), coord: make(map[string][]int64)}
	for i, p := range points {
		if i == 0 {
			g.Dim = len(p)
		} else if len(p) != g.Dim {
			return nil, fmt.Errorf("spatial: point %d has %d coordinates, want %d", i, len(p), g.Dim)
		}
		c := Bucket(p, w)
		k := Key(c)
		if _, ok := g.cells[k]; !ok {
			g.coord[k] = c
		}
		g.cells[k] = append(g.cells[k], i)
	}
	return g, nil
}

// PointsIn returns the indices bucketed into the cell with the given
// coordinates (nil when the cell is empty).
func (g *Grid) PointsIn(c []int64) []int { return g.cells[Key(c)] }

// Cells returns the occupied cell coordinates in canonical (key-sorted)
// order — the order every directory and candidate enumeration uses, so
// both parties walk cells identically.
func (g *Grid) Cells() [][]int64 {
	keys := make([]string, 0, len(g.cells))
	for k := range g.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]int64, len(keys))
	for i, k := range keys {
		out[i] = g.coord[k]
	}
	return out
}

// PadCount rounds a cell occupancy up to the next multiple of quantum, so
// a disclosed count reveals occupancy only to quantum precision.
func PadCount(n, quantum int) int {
	if quantum < 1 {
		quantum = 1
	}
	if n <= 0 {
		return 0
	}
	return (n + quantum - 1) / quantum * quantum
}

// DirCell is one disclosed cell: coordinates plus padded occupancy.
type DirCell struct {
	Coord []int64
	Count int // padded occupancy, a positive multiple of the quantum
}

// Directory is the padded per-cell occupancy summary a party disclosed:
// which grid cells it occupies and, per cell, its point count rounded up
// to the padding quantum. Cells are in canonical key order.
type Directory struct {
	Dim   int
	Cells []DirCell

	byKey map[string]int // padded count per cell key, for O(1) lookups
}

// Directory summarizes the grid with counts padded to quantum.
func (g *Grid) Directory(quantum int) Directory {
	cells := g.Cells()
	d := Directory{Dim: g.Dim, Cells: make([]DirCell, len(cells)), byKey: make(map[string]int, len(cells))}
	for i, c := range cells {
		count := PadCount(len(g.cells[Key(c)]), quantum)
		d.Cells[i] = DirCell{Coord: c, Count: count}
		d.byKey[Key(c)] = count
	}
	return d
}

// PaddedTotal sums the padded counts over all cells.
func (d Directory) PaddedTotal() int {
	t := 0
	for _, c := range d.Cells {
		t += c.Count
	}
	return t
}

// Candidates returns the directory cells adjacent to the query cell, in
// the directory's canonical order, plus their padded occupancy total —
// the exact size of the candidate set a pruned region query runs against.
// Cost is O(3^d) map probes per query, independent of the directory size.
func (d Directory) Candidates(cell []int64) (cells [][]int64, total int) {
	if len(cell) != d.Dim {
		return nil, 0
	}
	// Odometer over the 3^d neighbor offsets, probing the byKey map.
	offs := make([]int64, len(cell))
	for i := range offs {
		offs[i] = -1
	}
	probe := make([]int64, len(cell))
	for {
		overflow := false
		for i := range cell {
			c := cell[i] + offs[i]
			// ±1 can only wrap at the int64 extremes; such cells cannot
			// exist for in-domain data.
			if (offs[i] > 0 && c < cell[i]) || (offs[i] < 0 && c > cell[i]) {
				overflow = true
				break
			}
			probe[i] = c
		}
		if !overflow {
			if count := d.byKey[Key(probe)]; count > 0 {
				cells = append(cells, append([]int64{}, probe...))
				total += count
			}
		}
		i := 0
		for ; i < len(offs); i++ {
			offs[i]++
			if offs[i] <= 1 {
				break
			}
			offs[i] = -1
		}
		if i == len(offs) {
			break
		}
	}
	sort.Slice(cells, func(a, b int) bool { return Key(cells[a]) < Key(cells[b]) })
	return cells, total
}

// Count returns the padded occupancy of the given cell (0 when absent).
func (d Directory) Count(cell []int64) int {
	return d.byKey[Key(cell)]
}

// Encode appends the directory to a wire message: dim, cell count, then
// per cell the coordinates and padded count.
func (d Directory) Encode(b *transport.Builder) *transport.Builder {
	b.PutUint(uint64(d.Dim)).PutUint(uint64(len(d.Cells)))
	for _, c := range d.Cells {
		b.PutInts(c.Coord)
		b.PutUint(uint64(c.Count))
	}
	return b
}

// DecodeDirectory parses a directory and validates its shape: matching
// dimensions, canonical cell order (sorted, unique), and positive counts
// that are multiples of the agreed quantum.
func DecodeDirectory(r *transport.Reader, dim, quantum int) (Directory, error) {
	d := Directory{Dim: int(r.Uint()), byKey: make(map[string]int)}
	n := int(r.Uint())
	if err := r.Err(); err != nil {
		return Directory{}, err
	}
	if d.Dim != dim {
		return Directory{}, fmt.Errorf("spatial: directory dimension %d, want %d", d.Dim, dim)
	}
	// Each cell needs at least two bytes (coord count + padded count), so
	// a count beyond the buffer is a corrupt or hostile frame, not a short
	// loop or a giant allocation.
	if n < 0 || n > r.Remaining() {
		return Directory{}, fmt.Errorf("spatial: directory cell count %d exceeds message size", n)
	}
	prev := ""
	for i := 0; i < n; i++ {
		coord := r.Ints()
		count := int(r.Uint())
		if err := r.Err(); err != nil {
			return Directory{}, err
		}
		if len(coord) != dim {
			return Directory{}, fmt.Errorf("spatial: directory cell %d has %d coordinates, want %d", i, len(coord), dim)
		}
		if count < 1 || (quantum > 0 && count%quantum != 0) {
			return Directory{}, fmt.Errorf("spatial: directory cell %d count %d not a positive multiple of quantum %d", i, count, quantum)
		}
		k := Key(coord)
		if i > 0 && k <= prev {
			return Directory{}, fmt.Errorf("spatial: directory cells out of canonical order")
		}
		prev = k
		d.Cells = append(d.Cells, DirCell{Coord: coord, Count: count})
		d.byKey[k] = count
	}
	return d, nil
}

// EncodeCells appends a plain cell-coordinate list (candidate-cell
// announcements, lockstep cell rows) to a wire message.
func EncodeCells(b *transport.Builder, cells [][]int64) *transport.Builder {
	b.PutUint(uint64(len(cells)))
	for _, c := range cells {
		b.PutInts(c)
	}
	return b
}

// DecodeCells parses a cell-coordinate list of the given dimension; a
// negative dim accepts any width (callers validate consistency).
func DecodeCells(r *transport.Reader, dim int) ([][]int64, error) {
	n := int(r.Uint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Each cell needs at least one byte; reject counts a corrupt frame
	// cannot back before allocating for them.
	if n < 0 || n > r.Remaining() {
		return nil, fmt.Errorf("spatial: cell count %d exceeds message size", n)
	}
	out := make([][]int64, 0, n)
	for i := 0; i < n; i++ {
		c := r.Ints()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if dim >= 0 && len(c) != dim {
			return nil, fmt.Errorf("spatial: cell %d has %d coordinates, want %d", i, len(c), dim)
		}
		out = append(out, c)
	}
	return out, nil
}
