package spatial

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/transport"
)

func TestCellWidth(t *testing.T) {
	cases := []struct {
		epsSq, want int64
	}{
		{0, 1}, {1, 1}, {2, 2}, {4, 2}, {5, 3}, {9, 3}, {10, 4},
		{int64(1) << 50, 1 << 25},
		{(int64(1) << 50) + 1, (1 << 25) + 1},
	}
	for _, c := range cases {
		got := CellWidth(c.epsSq)
		if got != c.want {
			t.Errorf("CellWidth(%d) = %d, want %d", c.epsSq, got, c.want)
		}
		if got*got < c.epsSq || (got > 1 && (got-1)*(got-1) >= c.epsSq) {
			t.Errorf("CellWidth(%d) = %d is not the minimal width", c.epsSq, got)
		}
	}
}

func TestBucketFloorsNegatives(t *testing.T) {
	got := Bucket([]int64{-1, -4, -5, 0, 4, 5}, 4)
	want := []int64{-1, -1, -2, 0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bucket[-1 -4 -5 0 4 5]/4 = %v, want %v", got, want)
		}
	}
}

// Neighbours within Eps must always land in adjacent cells — the pruning
// soundness invariant.
func TestNeighboursAlwaysAdjacent(t *testing.T) {
	epsSq := int64(25)
	w := CellWidth(epsSq)
	pts := [][]int64{{0, 0}, {5, 0}, {3, 4}, {4, 4}, {63, 63}, {58, 60}}
	for i, p := range pts {
		for j, q := range pts {
			var d2 int64
			for k := range p {
				d := p[k] - q[k]
				d2 += d * d
			}
			if d2 <= epsSq && !Adjacent(Bucket(p, w), Bucket(q, w)) {
				t.Errorf("points %d,%d within Eps but in non-adjacent cells", i, j)
			}
		}
	}
}

func TestAdjacentExtremes(t *testing.T) {
	if Adjacent([]int64{math.MinInt64}, []int64{math.MaxInt64}) {
		t.Error("opposite extremes reported adjacent (subtraction overflow)")
	}
	if !Adjacent([]int64{math.MaxInt64}, []int64{math.MaxInt64 - 1}) {
		t.Error("consecutive extreme cells should be adjacent")
	}
	if Adjacent([]int64{0}, []int64{0, 0}) {
		t.Error("different dimensions should never be adjacent")
	}
}

func TestDirectoryPaddingAndCandidates(t *testing.T) {
	pts := [][]int64{
		{0, 0}, {1, 1}, {2, 2}, // cell (0,0) ×3
		{9, 9},             // cell (2,2)
		{60, 60}, {61, 60}, // cell (15,15)
	}
	g, err := NewGrid(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Directory(4)
	if len(d.Cells) != 3 {
		t.Fatalf("directory has %d cells, want 3", len(d.Cells))
	}
	for _, c := range d.Cells {
		if c.Count != 4 {
			t.Errorf("cell %v padded count %d, want 4", c.Coord, c.Count)
		}
	}
	if got := d.PaddedTotal(); got != 12 {
		t.Errorf("padded total %d, want 12", got)
	}
	// A query in cell (1,1) is adjacent to (0,0) and (2,2) but not (15,15).
	cells, total := d.Candidates([]int64{1, 1})
	if len(cells) != 2 || total != 8 {
		t.Errorf("candidates = %v (total %d), want 2 cells totalling 8", cells, total)
	}
	// A query far from everything has no candidates.
	cells, total = d.Candidates([]int64{8, 8})
	if len(cells) != 0 || total != 0 {
		t.Errorf("distant query got candidates %v (total %d)", cells, total)
	}
}

func TestDirectoryCodecRoundTrip(t *testing.T) {
	pts := [][]int64{{0, 0}, {7, 7}, {63, 0}}
	g, err := NewGrid(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Directory(2)
	b := transport.NewBuilder()
	d.Encode(b)
	got, err := DecodeDirectory(transport.NewReader(b.Bytes()), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(d.Cells) || got.Dim != d.Dim {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, d)
	}
	for i := range d.Cells {
		if Key(got.Cells[i].Coord) != Key(d.Cells[i].Coord) || got.Cells[i].Count != d.Cells[i].Count {
			t.Fatalf("cell %d mismatch: %+v vs %+v", i, got.Cells[i], d.Cells[i])
		}
	}
}

func TestDecodeDirectoryRejectsMalformed(t *testing.T) {
	mk := func(f func(*transport.Builder)) *transport.Reader {
		b := transport.NewBuilder()
		f(b)
		return transport.NewReader(b.Bytes())
	}
	cases := map[string]*transport.Reader{
		"wrong dim": mk(func(b *transport.Builder) {
			b.PutUint(3).PutUint(0)
		}),
		"non-quantum count": mk(func(b *transport.Builder) {
			b.PutUint(2).PutUint(1).PutInts([]int64{0, 0}).PutUint(3)
		}),
		"zero count": mk(func(b *transport.Builder) {
			b.PutUint(2).PutUint(1).PutInts([]int64{0, 0}).PutUint(0)
		}),
		"unsorted cells": mk(func(b *transport.Builder) {
			b.PutUint(2).PutUint(2).
				PutInts([]int64{1, 0}).PutUint(2).
				PutInts([]int64{0, 0}).PutUint(2)
		}),
		"short coord": mk(func(b *transport.Builder) {
			b.PutUint(2).PutUint(1).PutInts([]int64{0}).PutUint(2)
		}),
		"truncated": transport.NewReader([]byte{2}),
		"huge count": mk(func(b *transport.Builder) {
			b.PutUint(2).PutUint(1 << 61)
		}),
		"wrapping count": mk(func(b *transport.Builder) {
			b.PutUint(2).PutUint(1 << 63)
		}),
	}
	for name, r := range cases {
		if _, err := DecodeDirectory(r, 2, 2); err == nil {
			t.Errorf("%s: decode accepted malformed directory", name)
		}
	}
}

func TestDecodeCellsRejectsHugeCounts(t *testing.T) {
	for _, count := range []uint64{1 << 61, 1 << 63} {
		b := transport.NewBuilder().PutUint(count)
		if _, err := DecodeCells(transport.NewReader(b.Bytes()), math.MaxInt, 2); err == nil {
			t.Errorf("cell count %d accepted", count)
		}
	}
}

// TestDecodeCellsRefusesCountBeforeAllocating: a 1 MB frame whose count
// declares a million (empty) cells, above the caller's limit, is refused
// before anything is sized from the count.
func TestDecodeCellsRefusesCountBeforeAllocating(t *testing.T) {
	const n = 1 << 20
	frame := append(transport.NewBuilder().PutUint(n).Bytes(), make([]byte, n)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeCells(transport.NewReader(frame), 8, 2)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%d cells accepted at a limit of 8", n)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("refusing %d cells allocated %d bytes first", n, d)
	}
}

func TestCellsCodecRoundTrip(t *testing.T) {
	cells := [][]int64{{-3, 7}, {0, 0}, {1 << 40, -(1 << 40)}}
	b := EncodeCells(transport.NewBuilder(), cells)
	got, err := DecodeCells(transport.NewReader(b.Bytes()), len(cells), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("decoded %d cells, want %d", len(got), len(cells))
	}
	for i := range cells {
		if Key(got[i]) != Key(cells[i]) {
			t.Fatalf("cell %d: %v vs %v", i, got[i], cells[i])
		}
	}
	if _, err := DecodeCells(transport.NewReader(b.Bytes()), len(cells), 3); err == nil {
		t.Error("dimension mismatch not rejected")
	}
	if _, err := DecodeCells(transport.NewReader(b.Bytes()), len(cells)-1, 2); err == nil {
		t.Error("a cell count above the limit not rejected")
	}
}

func TestGridRejectsRaggedPoints(t *testing.T) {
	if _, err := NewGrid([][]int64{{1, 2}, {1}}, 2); err == nil {
		t.Error("ragged points accepted")
	}
}

func TestPadCount(t *testing.T) {
	cases := []struct{ n, q, want int }{
		{0, 4, 0}, {1, 4, 4}, {4, 4, 4}, {5, 4, 8}, {7, 1, 7}, {3, 0, 3},
	}
	for _, c := range cases {
		if got := PadCount(c.n, c.q); got != c.want {
			t.Errorf("PadCount(%d,%d) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// The occupied-cell scan and the neighbour-offset probe behind Candidates
// agree on random directories, whichever of them Candidates picks.
func TestCandidatesScanMatchesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(4)
		pts := make([][]int64, 1+rng.Intn(40))
		for i := range pts {
			pts[i] = make([]int64, dim)
			for j := range pts[i] {
				pts[i][j] = rng.Int63n(24) - 8
			}
		}
		g, err := NewGrid(pts, 1+rng.Int63n(4))
		if err != nil {
			t.Fatal(err)
		}
		d := g.Directory(1 + rng.Intn(3))
		q := make([]int64, dim)
		for j := range q {
			q[j] = rng.Int63n(10) - 5
		}
		sc, st := d.scan(q)
		pc, pt := d.probe(q)
		if st != pt || !reflect.DeepEqual(sc, pc) {
			t.Fatalf("dim %d query %v: scan %v (total %d), probe %v (total %d)", dim, q, sc, st, pc, pt)
		}
	}
}

// Candidates on a one-cell directory is a single cell test at any
// dimension, where the 3^d neighbourhood would be out of reach.
func TestCandidatesOneCellHighDim(t *testing.T) {
	const dim = 40
	pts := [][]int64{make([]int64, dim), make([]int64, dim)}
	pts[1][dim-1] = 99
	g, err := NewGrid(pts, 100)
	if err != nil {
		t.Fatal(err)
	}
	cells, total := g.Directory(1).Candidates(make([]int64, dim))
	if len(cells) != 1 || total != 2 {
		t.Fatalf("candidates = %v (total %d), want the one cell of 2 points", cells, total)
	}
	if !fewerThanNeighbours(1<<40, dim) || fewerThanNeighbours(9, 2) || !fewerThanNeighbours(8, 2) {
		t.Error("fewerThanNeighbours disagrees with n < 3^dim")
	}
}
