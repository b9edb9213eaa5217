package spatial

import (
	"math"
	"testing"

	"repro/internal/transport"
)

// FuzzGridBucket drives the bucketing and adjacency primitives with
// arbitrary coordinates — huge magnitudes, both signs, fixed-point
// extremes — and checks the invariants every pruning consumer relies on:
//
//  1. Bucket never panics and always places a point inside its own cell
//     ([c·w, (c+1)·w) per axis).
//  2. Adjacency is symmetric and reflexive.
//  3. Two points whose per-axis gap is at most w land in adjacent cells
//     (the soundness half of the pruning contract).
func FuzzGridBucket(f *testing.F) {
	f.Add(int64(0), int64(0), int64(1), int64(1), uint8(2))
	f.Add(int64(-1), int64(63), int64(math.MaxInt64), int64(math.MinInt64), uint8(25))
	f.Add(int64(math.MaxInt64-1), int64(math.MaxInt64), int64(1)<<50, -(int64(1) << 50), uint8(1))
	f.Add(int64(5), int64(-5), int64(4), int64(-4), uint8(3))

	f.Fuzz(func(t *testing.T, x0, y0, x1, y1 int64, wRaw uint8) {
		w := int64(wRaw)%64 + 1
		p := []int64{x0, y0}
		q := []int64{x1, y1}
		cp := Bucket(p, w)
		cq := Bucket(q, w)

		// A point is inside its own cell on every axis: c·w ≤ x < (c+1)·w.
		// Compare via the residue to stay overflow-safe at the extremes.
		for i, x := range p {
			r := x - cp[i]*w
			if r < 0 || r >= w {
				t.Fatalf("Bucket(%d, w=%d) = cell %d with residue %d outside [0,%d)", x, w, cp[i], r, w)
			}
		}

		// Adjacency is reflexive and symmetric.
		if !Adjacent(cp, cp) {
			t.Fatalf("cell %v not adjacent to itself", cp)
		}
		if Adjacent(cp, cq) != Adjacent(cq, cp) {
			t.Fatalf("asymmetric adjacency between %v and %v", cp, cq)
		}

		// Soundness: per-axis gap ≤ w ⇒ adjacent cells. Skip axes whose
		// difference overflows int64 — they are farther than any width.
		close := true
		for i := range p {
			d := p[i] - q[i]
			if (p[i] >= 0) != (q[i] >= 0) && (d < 0) != (p[i] < q[i]) {
				close = false // true distance exceeds int64: definitely > w
				break
			}
			if d < 0 {
				d = -d
			}
			if d > w {
				close = false
				break
			}
		}
		if close && !Adjacent(cp, cq) {
			t.Fatalf("points %v and %v within per-axis gap %d but cells %v,%v not adjacent", p, q, w, cp, cq)
		}

		// Key is injective on the pair (equal keys ⟺ equal cells).
		if (Key(cp) == Key(cq)) != (cp[0] == cq[0] && cp[1] == cq[1]) {
			t.Fatalf("Key collision or mismatch for %v vs %v", cp, cq)
		}
	})
}

// FuzzGridDelta drives the delta wire codec two ways. Structured inputs
// exercise the honest path: a batch bucketed by Stack.Append must encode
// to a delta that decodes back to the same cells and padded counts, and
// the decoded directory must satisfy every invariant DecodeDirectory
// enforces. The raw bytes (reinterpreted as a hostile frame) exercise the
// defensive path: DecodeGridDelta must reject or parse — never panic,
// never accept a directory violating canonical order or the quantum.
func FuzzGridDelta(f *testing.F) {
	f.Add(int64(0), int64(0), int64(7), int64(7), uint8(2), uint8(1), []byte{})
	f.Add(int64(-9), int64(40), int64(40), int64(-9), uint8(5), uint8(4), []byte{1, 0, 0})
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(1), int64(2), uint8(63), uint8(8), []byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, x0, y0, x1, y1 int64, wRaw, qRaw uint8, raw []byte) {
		w := int64(wRaw)%64 + 1
		quantum := int(qRaw)%8 + 1

		// Honest path: append → encode → decode round trip.
		s, err := NewStack(w, 2, quantum)
		if err != nil {
			t.Fatal(err)
		}
		batch := [][]int64{{x0, y0}, {x1, y1}}
		d, err := s.Append(batch)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		b := GridDelta{Gen: 1, Dir: d}.Encode(transport.NewBuilder())
		got, err := DecodeGridDelta(transport.NewReader(b.Bytes()), 2, quantum, 1)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(got.Dir.Cells) != len(d.Cells) || got.Dir.PaddedTotal() != d.PaddedTotal() {
			t.Fatalf("round trip mismatch: %+v vs %+v", got.Dir, d)
		}
		// The batch members must resolve against the stacked index with
		// exactly the padded counts the delta disclosed.
		members, dummy, err := s.ResolveSpan(0, s.Gens(), dirCoords(d))
		if err != nil {
			t.Fatalf("resolve over own delta cells: %v", err)
		}
		if len(members)+dummy != d.PaddedTotal() {
			t.Fatalf("resolve %d members + %d dummies ≠ padded total %d", len(members), dummy, d.PaddedTotal())
		}

		// Hostile path: arbitrary bytes must never panic the decoder, and
		// anything it accepts must satisfy the directory invariants.
		hd, err := DecodeGridDelta(transport.NewReader(raw), 2, quantum, 1)
		if err == nil {
			prev := ""
			for i, c := range hd.Dir.Cells {
				if len(c.Coord) != 2 || c.Count < 1 || c.Count%quantum != 0 {
					t.Fatalf("decoder accepted invalid cell %+v", c)
				}
				if k := Key(c.Coord); i > 0 && k <= prev {
					t.Fatalf("decoder accepted out-of-order cells")
				} else {
					prev = k
				}
			}
		}
	})
}

// FuzzTombstoneDelta drives the tombstone wire codec two ways, mirroring
// FuzzGridDelta. The honest path round-trips a structured expiry against
// a live stack and checks Expire agrees with what the codec accepted; the
// hostile path feeds raw bytes to DecodeTombstoneDelta, which must reject
// or parse — never panic, never accept an expiry outside the receiver's
// prefix-order window.
func FuzzTombstoneDelta(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(3), []byte{})
	f.Add(uint8(2), uint8(2), uint8(4), []byte{0, 0})
	f.Add(uint8(5), uint8(1), uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, deadRaw, nRaw, liveRaw uint8, raw []byte) {
		dead := int(deadRaw) % 8
		live := int(liveRaw)%8 + 1
		n := int(nRaw)%live + 1

		// Honest path: a stack with the claimed shape accepts the
		// tombstone and Expire applies it.
		s, err := NewStack(4, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < dead+live; g++ {
			if _, err := s.Append([][]int64{{int64(g), int64(g)}}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Expire(dead); err != nil {
			t.Fatalf("expire prefix: %v", err)
		}
		b := TombstoneDelta{From: dead, N: n}.Encode(transport.NewBuilder())
		got, err := DecodeTombstoneDelta(transport.NewReader(b.Bytes()), dead, live)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if got.From != dead || got.N != n {
			t.Fatalf("round trip mismatch: %+v", got)
		}
		removed, err := s.Expire(got.N)
		if err != nil {
			t.Fatalf("expire decoded tombstone: %v", err)
		}
		if removed != n || s.Dead() != dead+n || s.Total() != live-n {
			t.Fatalf("expire removed %d (dead %d, total %d), want %d/%d/%d",
				removed, s.Dead(), s.Total(), n, dead+n, live-n)
		}

		// Hostile path: arbitrary bytes must never panic the decoder, and
		// anything it accepts must be a valid prefix-order expiry.
		hd, err := DecodeTombstoneDelta(transport.NewReader(raw), dead, live)
		if err == nil {
			if hd.From != dead || hd.N < 1 || hd.N > live {
				t.Fatalf("decoder accepted invalid tombstone %+v (dead %d, live %d)", hd, dead, live)
			}
		}
	})
}

// dirCoords lists a directory's cell coordinates in canonical order.
func dirCoords(d Directory) [][]int64 {
	out := make([][]int64, len(d.Cells))
	for i, c := range d.Cells {
		out[i] = c.Coord
	}
	return out
}
