package spatial

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/transport"
)

// Stack.Retract unit coverage: masking keeps the disclosed padded
// footprint while the live numbering compacts, occupancy tracking feeds
// the compaction threshold, and the zero-occupancy and rebasing edges
// stay serviceable.

func TestStackRetractMasksWithoutShrinkingFootprint(t *testing.T) {
	s := mkStack(t, 4, 2, 2)
	// One 4-point generation in cell (0,0) plus one far point.
	if _, err := s.Append([][]int64{{0, 0}, {1, 1}, {2, 2}, {9, 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([][]int64{{0, 1}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	before, err := s.Dir(0)
	if err != nil {
		t.Fatal(err)
	}
	// Retract one gen-0 member: occupancy 3/4 stays above the threshold,
	// so the slot is masked, not compacted.
	if err := s.Retract([]int{1}); err != nil {
		t.Fatal(err)
	}
	if s.Total() != 5 {
		t.Fatalf("total after retract = %d, want 5", s.Total())
	}
	live, slots, err := s.GenOccupancy(0)
	if err != nil || live != 3 || slots != 4 {
		t.Fatalf("gen 0 occupancy = %d/%d, %v, want 3/4 (masked slot kept)", live, slots, err)
	}
	after, err := s.Dir(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Cells) != len(before.Cells) || after.PaddedTotal() != before.PaddedTotal() {
		t.Fatalf("retraction changed the disclosed directory: %+v vs %+v", after, before)
	}
	// The masked slot answers as one more dummy; the member count drops.
	members, dummy, err := s.ResolveSpan(0, s.Gens(), [][]int64{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Cell (0,0) spans {0,0},{1,1},{2,2} in gen 0 (one masked) and both
	// gen-1 points: 4 live members, and the masked slot pads as a dummy.
	if len(members) != 4 || dummy < 1 {
		t.Fatalf("post-retract resolve = %d members / %d dummies, want 4 live + ≥1 dummy", len(members), dummy)
	}
	// The live numbering compacts: survivors span [0, Total()).
	for _, m := range members {
		if m < 0 || m >= s.Total() {
			t.Fatalf("member %d outside compacted live range [0,%d)", m, s.Total())
		}
	}
}

func TestStackRetractCompactsBelowThreshold(t *testing.T) {
	s := mkStack(t, 4, 2, 1)
	if _, err := s.Append([][]int64{{0, 0}, {1, 1}, {2, 2}, {2, 1}}); err != nil {
		t.Fatal(err)
	}
	// Retract 3 of 4: occupancy 1/4 < 1/2 compacts the generation in
	// place — masked slots are physically dropped.
	if err := s.Retract([]int{0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	live, slots, err := s.GenOccupancy(0)
	if err != nil || live != 1 || slots != 1 {
		t.Fatalf("gen 0 occupancy = %d/%d, %v, want 1/1 after compaction", live, slots, err)
	}
	if s.Total() != 1 {
		t.Fatalf("total = %d, want 1", s.Total())
	}
	// The survivor keeps serving queries under its rebased index, and a
	// post-compaction retraction addresses the rebased numbering. All
	// four appended points bucket into cell (0,0) on the width-4 grid.
	members, _, err := s.ResolveSpan(0, s.Gens(), [][]int64{{0, 0}})
	if err != nil || len(members) != 1 || members[0] != 0 {
		t.Fatalf("post-compaction resolve = %v, %v, want [0]", members, err)
	}
	if err := s.Retract([]int{0}); err != nil {
		t.Fatal(err)
	}
	if s.Total() != 0 {
		t.Fatalf("total after rebased retract = %d, want 0", s.Total())
	}
}

func TestStackRetractZeroOccupancyGeneration(t *testing.T) {
	s := mkStack(t, 4, 2, 2)
	if _, err := s.Append([][]int64{{0, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([][]int64{{5, 5}}); err != nil {
		t.Fatal(err)
	}
	// Retract every gen-1 point: the generation stays live with zero
	// occupancy and serves all-dummy answers.
	if err := s.Retract([]int{2}); err != nil {
		t.Fatal(err)
	}
	live, _, err := s.GenOccupancy(1)
	if err != nil || live != 0 {
		t.Fatalf("gen 1 occupancy = %d, %v, want 0", live, err)
	}
	// Point {5,5} buckets into cell (1,1) on the width-4 grid; the
	// disclosed directory still lists that cell, so the query stays
	// valid after the retraction compacted the generation empty.
	members, dummy, err := s.ResolveSpan(1, s.Gens(), [][]int64{{1, 1}})
	if err != nil || len(members) != 0 || dummy < 1 {
		t.Fatalf("zero-occupancy resolve = %d members / %d dummies, %v, want all dummies", len(members), dummy, err)
	}
	// The zero-occupancy generation still expires normally, and the
	// stack keeps accepting appends.
	if _, err := s.Expire(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([][]int64{{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if s.Total() != 1 {
		t.Fatalf("total after refill = %d, want 1", s.Total())
	}
}

func TestStackGenOfAndRetractValidation(t *testing.T) {
	s := mkStack(t, 4, 2, 1)
	if _, err := s.Append([][]int64{{0, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([][]int64{{5, 5}}); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]int{0: 0, 1: 0, 2: 1} {
		if g, err := s.GenOf(id); err != nil || g != want {
			t.Errorf("GenOf(%d) = %d, %v, want %d", id, g, err, want)
		}
	}
	if _, err := s.GenOf(3); !errors.Is(err, ErrGenRange) {
		t.Errorf("GenOf(3) err = %v, want ErrGenRange", err)
	}
	if err := s.Retract([]int{0, 0}); err == nil {
		t.Error("duplicated retract ids accepted")
	}
	if err := s.Retract([]int{3}); !errors.Is(err, ErrGenRange) {
		t.Errorf("out-of-range retract err = %v, want ErrGenRange", err)
	}
	if err := s.Retract([]int{0, 1, 2, 3}); !errors.Is(err, ErrGenRange) {
		t.Errorf("over-retract err = %v, want ErrGenRange", err)
	}
	if _, _, err := s.GenOccupancy(7); !errors.Is(err, ErrGenRange) {
		t.Errorf("GenOccupancy(7) err = %v, want ErrGenRange", err)
	}
	// The rejected calls left the stack untouched.
	if s.Total() != 3 {
		t.Fatalf("total after rejected retractions = %d, want 3", s.Total())
	}
}

func TestPointTombstoneCodec(t *testing.T) {
	for _, ids := range [][]int{{}, {0}, {1, 3, 4}, {0, 1, 2, 3, 4}} {
		b := PointTombstone{IDs: ids}.Encode(transport.NewBuilder())
		got, err := DecodePointTombstone(transport.NewReader(b.Bytes()), 5)
		if err != nil {
			t.Fatalf("round trip of %v rejected: %v", ids, err)
		}
		if len(got.IDs) != len(ids) {
			t.Fatalf("round trip of %v = %v", ids, got.IDs)
		}
		for i := range ids {
			if got.IDs[i] != ids[i] {
				t.Fatalf("round trip of %v = %v", ids, got.IDs)
			}
		}
	}
	// A tombstone valid for the sender's count but not the receiver's
	// view is rejected by the count bound.
	b := PointTombstone{IDs: []int{0, 1, 2}}.Encode(transport.NewBuilder())
	if _, err := DecodePointTombstone(transport.NewReader(b.Bytes()), 2); !errors.Is(err, ErrGenRange) {
		t.Errorf("oversized tombstone err = %v, want ErrGenRange", err)
	}
}

// TestPointTombstoneCountBeforeAlloc: a frame declaring more ids than the
// receiver holds live points is refused before the id slice is sized from
// it — a 1 MB frame of 2^20 one-byte ids against 4 live points allocates
// next to nothing, where sizing first would allocate 8 MB.
func TestPointTombstoneCountBeforeAlloc(t *testing.T) {
	const n = 1 << 20
	b := transport.NewBuilder().PutUint(n)
	for range n {
		b.PutUint(0)
	}
	frame := b.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodePointTombstone(transport.NewReader(frame), 4)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrGenRange) {
		t.Errorf("err = %v, want ErrGenRange", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("decoding allocated %d bytes before refusing the count", got)
	}
}

// FuzzPointTombstone drives the point-tombstone wire codec two ways,
// mirroring FuzzTombstoneDelta. The honest path round-trips a structured
// retraction against a live stack and checks Retract agrees with what
// the codec accepted; the hostile path feeds raw bytes to
// DecodePointTombstone, which must reject or parse — never panic, never
// accept ids outside the receiver's live window or out of order.
func FuzzPointTombstone(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{})
	f.Add(uint8(5), uint8(0x15), []byte{0, 0})
	f.Add(uint8(8), uint8(0xff), []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), uint8(0), []byte{2, 0, 1})

	f.Fuzz(func(t *testing.T, totalRaw, maskRaw uint8, raw []byte) {
		total := int(totalRaw)%8 + 1
		// maskRaw's low bits pick which live indices the honest tombstone
		// retracts (already ascending by construction).
		var ids []int
		for i := 0; i < total; i++ {
			if maskRaw&(1<<i) != 0 {
				ids = append(ids, i)
			}
		}

		// Honest path: a stack with the claimed shape accepts the
		// tombstone and Retract applies it.
		s, err := NewStack(4, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([][]int64, total)
		for i := range batch {
			batch[i] = []int64{int64(i), int64(i)}
		}
		if _, err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		b := PointTombstone{IDs: ids}.Encode(transport.NewBuilder())
		got, err := DecodePointTombstone(transport.NewReader(b.Bytes()), total)
		if err != nil {
			t.Fatalf("round trip of %v rejected: %v", ids, err)
		}
		if len(got.IDs) != len(ids) {
			t.Fatalf("round trip of %v = %v", ids, got.IDs)
		}
		if err := s.Retract(got.IDs); err != nil {
			t.Fatalf("retract decoded tombstone %v: %v", got.IDs, err)
		}
		if s.Total() != total-len(ids) {
			t.Fatalf("retract left %d live points, want %d", s.Total(), total-len(ids))
		}

		// Hostile path: arbitrary bytes must never panic the decoder, and
		// anything it accepts must be a valid ascending in-range id list.
		hd, err := DecodePointTombstone(transport.NewReader(raw), total)
		if err == nil {
			if len(hd.IDs) > total {
				t.Fatalf("decoder accepted %d ids over live count %d", len(hd.IDs), total)
			}
			for i, id := range hd.IDs {
				if id < 0 || id >= total {
					t.Fatalf("decoder accepted out-of-range id %d (live %d)", id, total)
				}
				if i > 0 && id <= hd.IDs[i-1] {
					t.Fatalf("decoder accepted out-of-order ids %v", hd.IDs)
				}
			}
		}
	})
}
