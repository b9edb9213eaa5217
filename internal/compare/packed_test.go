package compare

import (
	"math/big"
	"testing"

	"repro/internal/encoding"
)

// packedPair builds a masked engine pair whose batch replies travel
// slot-packed, over the shared test key.
func packedPair(t testing.TB, bound int64, maskBits int) (*MaskedAlice, *MaskedBob) {
	t.Helper()
	_, pk := keys(t)
	a, b, err := NewMaskedPair(pk, bound, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	packer, err := encoding.NewComparePacker(pk.PlaintextBound(), bound, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	a.Packer, b.Packer = packer, packer
	return a, b
}

func TestPackedBatchMatchesPlaintext(t *testing.T) {
	const bound = 20
	ae, be := packedPair(t, bound, 32)
	if ae.Packer.Slots() < 2 {
		t.Fatalf("test key packs only %d slots; want ≥ 2", ae.Packer.Slots())
	}
	// More instances than one slot group, with a short final group, so
	// the grouping and the tail path are both exercised.
	n := ae.Packer.Slots()*2 + 1
	as := make([]int64, n)
	bs := make([]int64, n)
	for i := range as {
		as[i] = int64(i*7) % (bound + 1)
		bs[i] = int64(i*5+3) % (bound + 1)
	}
	as[0], bs[0] = 0, 0
	as[1], bs[1] = bound, 0
	as[2], bs[2] = 0, bound
	got := runBatchLessEq(t, ae, be, as, bs)
	for i := range as {
		if want := as[i] <= bs[i]; got[i] != want {
			t.Errorf("packed batch[%d]: %d ≤ %d = %v, want %v", i, as[i], bs[i], got[i], want)
		}
	}
	gotLess := runBatchLess(t, ae, be, as, bs)
	for i := range as {
		if want := as[i] < bs[i]; gotLess[i] != want {
			t.Errorf("packed strict batch[%d]: %d < %d = %v, want %v", i, as[i], bs[i], gotLess[i], want)
		}
	}
}

// TestPackedEqualsUnpacked asserts the equivalence contract at the
// engine level: identical inputs decide identical predicate vectors
// whether replies pack the key's slots or one (NewMaskedPair's packer).
func TestPackedEqualsUnpacked(t *testing.T) {
	const bound = 50
	_, pk := keys(t)
	plainA, plainB, err := NewMaskedPair(pk, bound, 32)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := packedPair(t, bound, 32)
	as := []int64{0, 50, 25, 25, 24, 26, 1, 49, 10}
	bs := []int64{0, 50, 25, 24, 25, 25, 49, 1, 10}
	want := runBatchLessEq(t, plainA, plainB, as, bs)
	got := runBatchLessEq(t, pa, pb, as, bs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packed and one-slot disagree at %d: packed %v, one-slot %v", i, got[i], want[i])
		}
	}
}

// TestPackedDegenerateSingleSlot forces S = 1: the packed path then
// sends one (biased) ciphertext per instance, and must still decide
// exactly what the plaintext predicate says.
func TestPackedDegenerateSingleSlot(t *testing.T) {
	const bound = 30
	_, pk := keys(t)
	a, b, err := NewMaskedPair(pk, bound, 32)
	if err != nil {
		t.Fatal(err)
	}
	// A slot magnitude near the plaintext bound leaves room for exactly
	// one slot, but still clears the compare magnitude (bound+2)·2^κ.
	packer, err := encoding.NewPacker(pk.PlaintextBound(), new(big.Int).Rsh(pk.PlaintextBound(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if packer.Slots() != 1 {
		t.Fatalf("slots = %d, want the degenerate 1", packer.Slots())
	}
	a.Packer, b.Packer = packer, packer
	as := []int64{0, bound, 17, 4}
	bs := []int64{bound, 0, 17, 5}
	got := runBatchLessEq(t, a, b, as, bs)
	for i := range as {
		if want := as[i] <= bs[i]; got[i] != want {
			t.Errorf("degenerate packed[%d]: %d ≤ %d = %v, want %v", i, as[i], bs[i], got[i], want)
		}
	}
}

// TestPackedBoundExtremes drives every slot to its extreme masked
// magnitude: a = 0 against b = bound (maximal positive difference) and
// a = bound against b = 0 (maximal negative), repeated across a full
// slot group — the no-inter-slot-carry proof at the protocol level.
func TestPackedBoundExtremes(t *testing.T) {
	const bound = 63*63*2 + 2 // the HDP comparison domain at grid 64, dim 2
	ae, be := packedPair(t, bound, DefaultMaskBits)
	n := ae.Packer.Slots()
	if n < 2 {
		t.Skip("key too small to group slots")
	}
	as := make([]int64, n)
	bs := make([]int64, n)
	for i := range as {
		if i%2 == 0 {
			as[i], bs[i] = 0, bound
		} else {
			as[i], bs[i] = bound, 0
		}
	}
	got := runBatchLessEq(t, ae, be, as, bs)
	for i := range as {
		if want := as[i] <= bs[i]; got[i] != want {
			t.Errorf("extreme slot %d: %d ≤ %d = %v, want %v (carry crossed a slot)", i, as[i], bs[i], got[i], want)
		}
	}
}
