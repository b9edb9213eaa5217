package encoding

import (
	"math/big"
	"testing"
)

// bound255 stands in for a 256-bit Paillier key's plaintext bound n/2.
func bound255() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), 255)
}

func TestPackerDerivation(t *testing.T) {
	slotMax := big.NewInt(1000) // 2·slotMax = 2001 → 11 bits → w = 12
	p, err := NewPacker(bound255(), slotMax)
	if err != nil {
		t.Fatal(err)
	}
	if p.Width() != 12 {
		t.Fatalf("width = %d, want 12", p.Width())
	}
	if want := (256 - 1 - 1) / 12; p.Slots() != want {
		t.Fatalf("slots = %d, want %d", p.Slots(), want)
	}
	if p.Bias().Cmp(slotMax) != 0 {
		t.Fatalf("bias = %v, want %v", p.Bias(), slotMax)
	}
	// Largest biased slot value must leave the carry-guard bit clear.
	top := new(big.Int).Lsh(slotMax, 1)
	if top.BitLen() >= int(p.Width()) {
		t.Fatalf("biased maximum %v fills the %d-bit slot", top, p.Width())
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	p, err := NewPacker(bound255(), big.NewInt(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{0, 1, -1, 1 << 20, -(1 << 20), 12345, -54321}
	if len(vals) > p.Slots() {
		vals = vals[:p.Slots()]
	}
	packed, err := p.PackInt64(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.UnpackInt64(packed, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("slot %d: got %d, want %d", i, got[i], v)
		}
	}
}

// TestMaximalValuesNoCarry is the overflow proof as a test: every slot
// at its extreme magnitude (maximal value plus maximal mask share, both
// signs) packs and unpacks exactly, with no inter-slot carry.
func TestMaximalValuesNoCarry(t *testing.T) {
	maxProduct := int64(63 * 63) // fixedpoint grid 64 → coordinate products ≤ 63²
	maskBound := new(big.Int).Lsh(big.NewInt(maxProduct), 40)
	p, err := NewProductPacker(bound255(), maxProduct, maskBound, 2)
	if err != nil {
		t.Fatal(err)
	}
	slotMax := p.SlotMax()
	vals := make([]*big.Int, p.Slots())
	for i := range vals {
		if i%2 == 0 {
			vals[i] = new(big.Int).Set(slotMax)
		} else {
			vals[i] = new(big.Int).Neg(slotMax)
		}
	}
	packed, err := p.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Unpack(packed, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i].Cmp(vals[i]) != 0 {
			t.Fatalf("slot %d: got %v, want %v (carry crossed a slot boundary)", i, got[i], vals[i])
		}
	}
	// A value one past the bound must be rejected, not silently wrapped.
	over := []*big.Int{new(big.Int).Add(slotMax, big.NewInt(1))}
	if _, err := p.Pack(over); err == nil {
		t.Fatal("Pack accepted a value past SlotMax")
	}
}

func TestShortFinalGroup(t *testing.T) {
	p, err := NewPacker(bound255(), big.NewInt(500))
	if err != nil {
		t.Fatal(err)
	}
	n := p.Slots() + 2 // two groups, second short
	if g := p.Groups(n); g != 2 {
		t.Fatalf("Groups(%d) = %d, want 2", n, g)
	}
	if l := p.GroupLen(n, 0); l != p.Slots() {
		t.Fatalf("GroupLen(%d, 0) = %d, want %d", n, l, p.Slots())
	}
	if l := p.GroupLen(n, 1); l != 2 {
		t.Fatalf("GroupLen(%d, 1) = %d, want 2", n, l)
	}
	packed, err := p.PackInt64([]int64{-500, 500})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.UnpackInt64(packed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -500 || got[1] != 500 {
		t.Fatalf("short group round trip: got %v", got)
	}
}

func TestPackRaw(t *testing.T) {
	p, err := NewSumPacker(bound255(), 9000)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := p.PackRaw([]*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	biased, err := p.PackInt64([]int64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	// Raw contributions add onto a biased base without disturbing the
	// bias — the accumulating-ring invariant.
	sum := new(big.Int).Add(raw, biased)
	got, err := p.UnpackInt64(sum, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{11, 22, 33}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := p.PackRaw([]*big.Int{big.NewInt(-1)}); err == nil {
		t.Fatal("PackRaw accepted a negative value")
	}
}

func TestShiftPlacesSlot(t *testing.T) {
	p, err := NewPacker(bound255(), big.NewInt(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	// x·Shift(y, s) must equal a packed value whose slot s holds x·y
	// (unbiased), the sender-side slot-placement identity.
	x, y := big.NewInt(777), big.NewInt(-12)
	prod := new(big.Int).Mul(x, p.Shift(y, 3))
	bias3 := new(big.Int)
	for s := 0; s <= 3; s++ {
		bias3.Or(bias3, p.Shift(p.Bias(), s))
	}
	got, err := p.Unpack(new(big.Int).Add(prod, bias3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := big.NewInt(777 * -12); got[3].Cmp(want) != 0 {
		t.Fatalf("slot 3 = %v, want %v", got[3], want)
	}
	for s := 0; s < 3; s++ {
		if got[s].Sign() != 0 {
			t.Fatalf("slot %d = %v, want 0", s, got[s])
		}
	}
}

func TestDegenerateSingleSlot(t *testing.T) {
	// A slot magnitude near the plaintext bound forces S = 1, and OneSlot
	// caps a many-slot packer to it: packing still works, as one biased
	// value per ciphertext.
	forced, err := NewPacker(bound255(), new(big.Int).Rsh(bound255(), 3))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewPacker(bound255(), big.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	capped := wide.OneSlot()
	if wide.Slots() < 2 || capped.Width() != wide.Width() || capped.Bias().Cmp(wide.Bias()) != 0 {
		t.Fatalf("OneSlot of %d slots: width %d vs %d, bias %v vs %v", wide.Slots(), capped.Width(), wide.Width(), capped.Bias(), wide.Bias())
	}
	for _, p := range []*Packer{forced, capped} {
		if p.Slots() != 1 || p.Groups(3) != 3 {
			t.Fatalf("slots = %d, groups of 3 = %d, want 1 and 3", p.Slots(), p.Groups(3))
		}
		packed, err := p.PackInt64([]int64{-42})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.UnpackInt64(packed, 1)
		if err != nil || got[0] != -42 {
			t.Fatalf("degenerate round trip: got %v, %v", got, err)
		}
		if _, err := p.PackInt64([]int64{1, 2}); err == nil {
			t.Fatal("two values packed into one slot")
		}
	}
}

func TestPackerRejectsOversizedSlots(t *testing.T) {
	// Slot magnitude so large even one slot cannot fit.
	huge := new(big.Int).Lsh(big.NewInt(1), 300)
	if _, err := NewPacker(bound255(), huge); err == nil {
		t.Fatal("NewPacker accepted slots wider than the plaintext space")
	}
	if _, err := NewPacker(big.NewInt(0), big.NewInt(1)); err == nil {
		t.Fatal("NewPacker accepted a non-positive plaintext bound")
	}
}

func TestUnpackRejectsOutOfRange(t *testing.T) {
	p, err := NewPacker(bound255(), big.NewInt(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Unpack(big.NewInt(-1), 1); err == nil {
		t.Fatal("Unpack accepted a negative packed value")
	}
	too := new(big.Int).Lsh(big.NewInt(1), uint(p.Slots())*p.Width())
	if _, err := p.Unpack(too, 1); err == nil {
		t.Fatal("Unpack accepted a value past the packed range")
	}
	if _, err := p.Unpack(big.NewInt(0), p.Slots()+1); err == nil {
		t.Fatal("Unpack accepted a slot count past S")
	}
}

// TestUplinkPackerWidensSlots pins the per-slot-mask derivation: the
// uplink packer spends exactly one guard bit more than the reply-side
// compare packer for the same shape, never packs more values per
// plaintext, and keeps the same slot magnitude bound.
func TestUplinkPackerWidensSlots(t *testing.T) {
	const max, maskBits = 4096, 40
	reply, err := NewComparePacker(bound255(), max, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	up, err := NewUplinkComparePacker(bound255(), max, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	if up.Width() <= reply.Width() {
		t.Fatalf("uplink width = %d not wider than reply width = %d", up.Width(), reply.Width())
	}
	if up.Slots() > reply.Slots() {
		t.Fatalf("uplink slots = %d exceed reply slots = %d", up.Slots(), reply.Slots())
	}
	// M = 2^κ·(2·max+3): the κ-bit mask over the doubled (signed
	// derived-base) operand spread.
	want := new(big.Int).Lsh(big.NewInt(2*max+3), maskBits)
	if up.SlotMax().Cmp(want) != 0 {
		t.Fatalf("uplink slot magnitude = %v, want 2^κ·(2·max+3) = %v", up.SlotMax(), want)
	}
}

// TestUplinkPackerMaximalMaskedSlots drives every uplink slot to its
// extreme: the maximal difference times the maximal κ-bit mask, both
// signs alternating, must round-trip with no inter-slot carry.
func TestUplinkPackerMaximalMaskedSlots(t *testing.T) {
	const max, maskBits = 1 << 12, 40
	p, err := NewUplinkComparePacker(bound255(), max, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	slotMax := p.SlotMax()
	vals := make([]*big.Int, p.Slots())
	for i := range vals {
		if i%2 == 0 {
			vals[i] = new(big.Int).Set(slotMax)
		} else {
			vals[i] = new(big.Int).Neg(slotMax)
		}
	}
	packed, err := p.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Unpack(packed, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i].Cmp(vals[i]) != 0 {
			t.Fatalf("slot %d: got %v, want %v (carry crossed a slot boundary)", i, got[i], vals[i])
		}
	}
}

// TestUplinkPackerRejectsZeroSlots: a plaintext space too small for even
// one widened slot must fail construction, not degrade silently.
func TestUplinkPackerRejectsZeroSlots(t *testing.T) {
	small := new(big.Int).Lsh(big.NewInt(1), 40) // κ = 40 alone outgrows this
	if _, err := NewUplinkComparePacker(small, 4096, 40); err == nil {
		t.Fatal("NewUplinkComparePacker accepted a key with no room for one widened slot")
	}
	if _, err := NewUplinkComparePacker(bound255(), -1, 40); err == nil {
		t.Fatal("NewUplinkComparePacker accepted a negative max")
	}
	if _, err := NewUplinkComparePacker(bound255(), 10, 0); err == nil {
		t.Fatal("NewUplinkComparePacker accepted maskBits = 0")
	}
}

// TestSlotIndexMatchesGrouping: SlotIndex must invert the g·S+s
// flattening Groups/GroupLen imply, for every index of a two-group
// batch including the short tail.
func TestSlotIndexMatchesGrouping(t *testing.T) {
	p, err := NewPacker(bound255(), big.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	n := p.Slots() + 2
	for i := 0; i < n; i++ {
		g, s := p.SlotIndex(i)
		if g*p.Slots()+s != i {
			t.Fatalf("SlotIndex(%d) = (%d, %d): does not invert the flattening", i, g, s)
		}
		if g >= p.Groups(n) || s >= p.GroupLen(n, g) {
			t.Fatalf("SlotIndex(%d) = (%d, %d): outside Groups/GroupLen bounds", i, g, s)
		}
	}
}

// TestFoldShiftMirrorsPack: folding biased per-slot values must equal
// Pack, and folding raw non-negative values must equal PackRaw — the
// plaintext identity the homomorphic slot fold relies on.
func TestFoldShiftMirrorsPack(t *testing.T) {
	p, err := NewPacker(bound255(), big.NewInt(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	vals := []*big.Int{big.NewInt(12), big.NewInt(-34), big.NewInt(56)}
	biased := make([]*big.Int, len(vals))
	for i, v := range vals {
		biased[i] = new(big.Int).Add(v, p.Bias())
	}
	packed, err := p.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	if fold := p.FoldShift(biased); fold.Cmp(packed) != 0 {
		t.Fatalf("FoldShift(biased) = %v, Pack = %v", fold, packed)
	}
	raws := []*big.Int{big.NewInt(7), big.NewInt(0), big.NewInt(99)}
	rawPacked, err := p.PackRaw(raws)
	if err != nil {
		t.Fatal(err)
	}
	if fold := p.FoldShift(raws); fold.Cmp(rawPacked) != 0 {
		t.Fatalf("FoldShift(raw) = %v, PackRaw = %v", fold, rawPacked)
	}
}

// FuzzSlotPack round-trips arbitrary values through Pack/Unpack across
// fuzzed slot magnitudes: whatever the codec range, packing must be the
// identity on every slot and must never let one slot disturb another.
func FuzzSlotPack(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), int64(0), uint8(10))
	f.Add(int64(1), int64(-1), int64(2), int64(-2), uint8(1))
	f.Add(int64(1<<40), int64(-(1 << 40)), int64(7), int64(-7), uint8(45))
	f.Add(int64(-9), int64(9), int64(-9), int64(9), uint8(60))
	f.Fuzz(func(t *testing.T, a, b, c, d int64, magBits uint8) {
		slotMax := new(big.Int).Lsh(big.NewInt(1), uint(magBits%61)+1)
		p, err := NewPacker(bound255(), slotMax)
		if err != nil {
			t.Skip() // magnitude past the plaintext space: rejection is the contract
		}
		clamp := func(v int64) *big.Int {
			return new(big.Int).Mod(big.NewInt(v), new(big.Int).Add(slotMax, big.NewInt(1)))
		}
		vals := []*big.Int{clamp(a), clamp(b), clamp(c), clamp(d)}
		if vals[1].Sign() > 0 {
			vals[1] = vals[1].Neg(vals[1])
		}
		if vals[3].Sign() > 0 {
			vals[3] = vals[3].Neg(vals[3])
		}
		if len(vals) > p.Slots() {
			vals = vals[:p.Slots()]
		}
		packed, err := p.Pack(vals)
		if err != nil {
			t.Fatalf("Pack rejected in-range values: %v", err)
		}
		got, err := p.Unpack(packed, len(vals))
		if err != nil {
			t.Fatalf("Unpack failed on Pack output: %v", err)
		}
		for i := range vals {
			if got[i].Cmp(vals[i]) != 0 {
				t.Fatalf("slot %d: got %v, want %v", i, got[i], vals[i])
			}
		}
	})
}
