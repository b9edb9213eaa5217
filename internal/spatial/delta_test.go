package spatial

import (
	"errors"
	"testing"

	"repro/internal/transport"
)

func mkStack(t *testing.T, w int64, dim, quantum int) *Stack {
	t.Helper()
	s, err := NewStack(w, dim, quantum)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStackAppendAssignsGlobalIndices(t *testing.T) {
	s := mkStack(t, 4, 2, 2)
	if _, err := s.Append([][]int64{{0, 0}, {1, 1}, {9, 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([][]int64{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if s.Gens() != 2 || s.Total() != 4 {
		t.Fatalf("gens=%d total=%d, want 2/4", s.Gens(), s.Total())
	}
	// Cell (0,0) holds points 0,1 from gen 0 and point 3 from gen 1.
	members, dummy, err := s.ResolveSpan(0, s.Gens(), [][]int64{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 1: true, 3: true}
	if len(members) != 3 {
		t.Fatalf("members %v, want 3 of %v", members, want)
	}
	for _, m := range members {
		if !want[m] {
			t.Fatalf("unexpected member %d in %v", m, members)
		}
	}
	// Quantum 2: gen 0 pads 2→2, gen 1 pads 1→2, so one dummy entry.
	if dummy != 1 {
		t.Fatalf("dummy=%d, want 1", dummy)
	}

	// Range [1, 2): only the generation-1 member, padded to the quantum.
	members, dummy, err = s.ResolveSpan(1, s.Gens(), [][]int64{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0] != 3 || dummy != 1 {
		t.Fatalf("suffix resolve = %v/%d, want [3]/1", members, dummy)
	}
}

func TestStackResolveRangeRejectsBadQueries(t *testing.T) {
	s := mkStack(t, 4, 2, 1)
	if _, err := s.Append([][]int64{{0, 0}, {9, 9}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ResolveSpan(0, s.Gens(), [][]int64{{5, 5}}); err == nil {
		t.Error("unoccupied cell accepted")
	}
	if _, _, err := s.ResolveSpan(0, s.Gens(), [][]int64{{2, 2}, {0, 0}}); err == nil {
		t.Error("out-of-order cells accepted")
	}
	if _, _, err := s.ResolveSpan(3, s.Gens(), nil); err == nil {
		t.Error("out-of-range generation accepted")
	}
	if _, _, err := s.ResolveSpan(1, s.Gens(), [][]int64{{0, 0}}); err == nil {
		t.Error("cell occupied only before the range accepted")
	}
	if _, err := s.Append([][]int64{{1, 1, 1}}); err == nil {
		t.Error("wrong-dimension append accepted")
	}
}

func TestCandidatesRangeUnionsGenerations(t *testing.T) {
	s := mkStack(t, 4, 2, 2)
	d0, _ := s.Append([][]int64{{0, 0}, {0, 1}}) // cell (0,0), padded 2
	d1, _ := s.Append([][]int64{{5, 5}})         // cell (1,1), padded 2
	d2, _ := s.Append([][]int64{{20, 20}})       // cell (5,5): not adjacent to (0,0)
	dirs := []Directory{d0, d1, d2}

	cells, total := CandidatesSpan(dirs, 0, len(dirs), []int64{0, 0})
	if len(cells) != 2 || total != 4 {
		t.Fatalf("full range candidates=%v total=%d, want 2 cells / 4", cells, total)
	}
	cells, total = CandidatesSpan(dirs, 1, len(dirs), []int64{0, 0})
	if len(cells) != 1 || total != 2 {
		t.Fatalf("suffix candidates=%v total=%d, want cell (1,1) / 2", cells, total)
	}
	cells, total = CandidatesSpan(dirs, 2, len(dirs), []int64{0, 0})
	if len(cells) != 0 || total != 0 {
		t.Fatalf("disjoint suffix candidates=%v total=%d, want none", cells, total)
	}
}

func TestStackDirGenStartBounds(t *testing.T) {
	s := mkStack(t, 4, 2, 1)
	if _, err := s.Append([][]int64{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{-1, 1, 7} {
		if _, err := s.Dir(g); !errors.Is(err, ErrGenRange) {
			t.Errorf("Dir(%d) err = %v, want ErrGenRange", g, err)
		}
	}
	for _, g := range []int{-1, 2, 7} {
		if _, err := s.GenStart(g); !errors.Is(err, ErrGenRange) {
			t.Errorf("GenStart(%d) err = %v, want ErrGenRange", g, err)
		}
	}
	// GenStart(Gens()) is Total(), not an error.
	if n, err := s.GenStart(1); err != nil || n != 1 {
		t.Fatalf("GenStart(Gens()) = %d, %v, want 1, nil", n, err)
	}
	// ResolveSpan over the empty span [Gens(), Gens()) accepts an empty query.
	if _, _, err := s.ResolveSpan(s.Gens(), s.Gens(), nil); err != nil {
		t.Fatalf("ResolveSpan(Gens(), Gens(), nil): %v", err)
	}
}

func TestStackExpireRebasesSurvivors(t *testing.T) {
	s := mkStack(t, 4, 2, 2)
	if _, err := s.Append([][]int64{{0, 0}, {1, 1}, {9, 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([][]int64{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([][]int64{{1, 0}, {9, 8}}); err != nil {
		t.Fatal(err)
	}
	removed, err := s.Expire(1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 || s.Dead() != 1 || s.Gens() != 3 || s.Total() != 3 {
		t.Fatalf("expire: removed=%d dead=%d gens=%d total=%d", removed, s.Dead(), s.Gens(), s.Total())
	}
	// The expired generation answers as empty.
	d, err := s.Dir(0)
	if err != nil || len(d.Cells) != 0 || d.Dim != 2 {
		t.Fatalf("dead Dir(0) = %+v, %v", d, err)
	}
	if n, err := s.GenStart(0); err != nil || n != 0 {
		t.Fatalf("dead GenStart(0) = %d, %v", n, err)
	}
	if n, err := s.GenStart(1); err != nil || n != 0 {
		t.Fatalf("survivor GenStart(1) = %d, %v, want rebased 0", n, err)
	}
	if n, err := s.GenStart(2); err != nil || n != 1 {
		t.Fatalf("survivor GenStart(2) = %d, %v, want rebased 1", n, err)
	}
	// Cell (0,0): gen-1 point (now index 0) + gen-2 point (now index 1);
	// the expired gen-0 members are gone. Quantum 2 pads each live
	// generation's single member to 2.
	members, dummy, err := s.ResolveSpan(0, s.Gens(), [][]int64{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || dummy != 2 {
		t.Fatalf("post-expiry resolve = %v/%d, want 2 members / 2 dummies", members, dummy)
	}
	for _, m := range members {
		if m != 0 && m != 1 {
			t.Fatalf("post-expiry member %d outside rebased window", m)
		}
	}
	// A from inside the dead prefix behaves like from == dead.
	m2, d2, err := s.ResolveSpan(1, s.Gens(), [][]int64{{0, 0}})
	if err != nil || len(m2) != len(members) || d2 != dummy {
		t.Fatalf("from inside dead prefix: %v/%d, %v", m2, d2, err)
	}
	// Expiring more than the live window is rejected.
	if _, err := s.Expire(3); !errors.Is(err, ErrGenRange) {
		t.Fatalf("over-expire err = %v, want ErrGenRange", err)
	}
}

func TestStackExpireAllAndEmptyBatches(t *testing.T) {
	s := mkStack(t, 4, 2, 1)
	if _, err := s.Append([][]int64{}); err != nil {
		t.Fatal(err) // empty-batch generation
	}
	if _, err := s.Append([][]int64{{2, 2}}); err != nil {
		t.Fatal(err)
	}
	removed, err := s.Expire(2)
	if err != nil || removed != 1 {
		t.Fatalf("expire all: removed=%d err=%v", removed, err)
	}
	if s.Total() != 0 || s.Dead() != 2 || s.Gens() != 2 {
		t.Fatalf("empty window: total=%d dead=%d gens=%d", s.Total(), s.Dead(), s.Gens())
	}
	// The empty window still accepts appends with absolute numbering.
	if _, err := s.Append([][]int64{{5, 5}}); err != nil {
		t.Fatal(err)
	}
	if s.Gens() != 3 || s.Total() != 1 {
		t.Fatalf("append after expire-all: gens=%d total=%d", s.Gens(), s.Total())
	}
	if n, err := s.GenStart(2); err != nil || n != 0 {
		t.Fatalf("new generation start = %d, %v", n, err)
	}
}

func TestTombstoneDeltaCodec(t *testing.T) {
	b := TombstoneDelta{From: 2, N: 1}.Encode(transport.NewBuilder())
	got, err := DecodeTombstoneDelta(transport.NewReader(b.Bytes()), 2, 3)
	if err != nil || got.From != 2 || got.N != 1 {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	// Prefix-order pin: From must match the receiver's dead count.
	b = TombstoneDelta{From: 1, N: 1}.Encode(transport.NewBuilder())
	if _, err := DecodeTombstoneDelta(transport.NewReader(b.Bytes()), 2, 3); err == nil {
		t.Error("out-of-order tombstone accepted")
	}
	// N outside [1, liveGens] is rejected.
	for _, n := range []int{0, 4} {
		b = TombstoneDelta{From: 2, N: n}.Encode(transport.NewBuilder())
		if _, err := DecodeTombstoneDelta(transport.NewReader(b.Bytes()), 2, 3); err == nil {
			t.Errorf("tombstone N=%d accepted", n)
		}
	}
}

func TestGridDeltaCodecRoundTrip(t *testing.T) {
	s := mkStack(t, 3, 2, 4)
	for gen, batch := range [][][]int64{
		{{0, 0}, {1, 2}, {8, 8}},
		{}, // a party may append nothing while its peer appends
		{{-5, -5}},
	} {
		d, err := s.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		delta := GridDelta{Gen: gen + 1, Dir: d}
		b := delta.Encode(transport.NewBuilder())
		got, err := DecodeGridDelta(transport.NewReader(b.Bytes()), 2, 4, gen+1)
		if err != nil {
			t.Fatalf("gen %d: %v", gen+1, err)
		}
		if got.Gen != gen+1 || got.Dir.Dim != 2 || len(got.Dir.Cells) != len(d.Cells) {
			t.Fatalf("gen %d round trip mismatch: %+v vs %+v", gen+1, got, delta)
		}
		for i := range d.Cells {
			if Key(got.Dir.Cells[i].Coord) != Key(d.Cells[i].Coord) || got.Dir.Cells[i].Count != d.Cells[i].Count {
				t.Fatalf("gen %d cell %d mismatch", gen+1, i)
			}
		}
	}
}

func TestGridDeltaRejectsWrongGeneration(t *testing.T) {
	s := mkStack(t, 3, 2, 1)
	d, _ := s.Append([][]int64{{0, 0}})
	b := GridDelta{Gen: 2, Dir: d}.Encode(transport.NewBuilder())
	if _, err := DecodeGridDelta(transport.NewReader(b.Bytes()), 2, 1, 1); err == nil {
		t.Error("out-of-sequence delta accepted")
	}
	// Wrong quantum in the embedded directory is also rejected.
	b = GridDelta{Gen: 1, Dir: d}.Encode(transport.NewBuilder())
	if _, err := DecodeGridDelta(transport.NewReader(b.Bytes()), 2, 4, 1); err == nil {
		t.Error("quantum-violating delta accepted")
	}
}
