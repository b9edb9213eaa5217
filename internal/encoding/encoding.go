// Package encoding implements slot-shifted plaintext packing for the
// Paillier cryptosystem: S fixed-point values share one plaintext, each
// occupying a fixed-width bit slot, so one ciphertext carries S values
// and the additive homomorphism acts on all S slots at once.
//
// # Layout
//
// A Packer with slot width w and bias B encodes values v_0..v_{S-1}
// (each |v_s| ≤ SlotMax) as the single non-negative integer
//
//	packed = Σ_s (v_s + B) · 2^{w·s}
//
// The bias B = SlotMax shifts every slot into [0, 2·SlotMax], so slots
// never borrow from their neighbours no matter the sign of v_s, and the
// whole packed value stays in [0, 2^{S·w}) ⊆ [0, n/2) — inside the
// positive half of the plaintext space, where Paillier decryption needs
// no signed decoding.
//
// # Why carries cannot occur
//
// The slot width is sized for the *final* per-slot value after all
// homomorphic arithmetic, not the packed inputs: w is chosen so that
// 2·SlotMax < 2^{w-1}, leaving one spare carry-guard bit above the
// largest biased value a slot can reach. Every protocol in this
// repository packs so that exactly one party contributes the bias and
// the slot's arithmetic never exceeds SlotMax in magnitude; the final
// biased slot value is then in [0, 2·SlotMax] ⊂ [0, 2^w), and slots are
// disjoint bit ranges of one integer. Intermediate homomorphic states
// may be "negative" in a slot (e.g. after multiplying by a negative
// scalar) — that is harmless, because the group operations are exact in
// ℤ_n and only the final decrypted value is ever interpreted.
//
// S is chosen from the key: S = ⌊(|n/2| − 1) / w⌋ where |n/2| is the
// bit length of the plaintext bound, so packed values cannot reach the
// signed-encoding wrap at n/2. S = 1 is the degenerate packing (one
// value per ciphertext, still biased; Packer.OneSlot caps any packer to
// it); construction fails only when even one slot does not fit.
//
// # Packed comparison uplink
//
// The packed-uplink comparison form ("full" packing) goes one step
// further than packed replies: the oracle folds an independent κ-bit
// multiplier r_t into every slot homomorphically (ct^{r_t·2^{w·d}}, ct
// an encryption of the negated operand pre-shifted by its sender to d
// slots below t's slot, merged by the group operation; a derived base,
// which has no sender, is built negated by its folder and sits at d = 0
// below its slot) instead of packing finished
// masked values. NewUplinkComparePacker derives the slot width for that
// shape — the κ-bit mask lives *inside* the slot arithmetic and the
// uplink base may itself be a signed difference of retained
// ciphertexts, so the width is re-derived with the mask multiplied into
// the doubled operand spread (see the constructor's derivation note),
// and construction fails loudly when the widened slot would push S to 0
// on a small key. SlotIndex and FoldShift are the slot-group fold
// primitives that shape shares with its plaintext mirror.
package encoding

import (
	"fmt"
	"math/big"
)

// Packer packs and unpacks slot-shifted plaintexts for one Paillier key
// (identified by its plaintext bound n/2) and one slot magnitude. Both
// parties of a protocol derive identical Packers from handshake-agreed
// parameters and the exchanged public keys; a Packer is stateless and
// safe for concurrent use.
type Packer struct {
	slots   int      // S: values per plaintext
	width   uint     // w: bits per slot (value + bias + carry guard)
	bias    *big.Int // per-slot shift = slotMax
	slotMax *big.Int // max |value| a slot may hold after all arithmetic
	mask    *big.Int // 2^w − 1, for slot extraction
}

// NewPacker derives a Packer for a key with the given plaintext bound
// (PublicKey.PlaintextBound(), i.e. n/2) and the largest magnitude any
// slot's final value can reach. It fails if even a single slot does not
// fit the plaintext space.
func NewPacker(plainBound, slotMax *big.Int) (*Packer, error) {
	if plainBound == nil || plainBound.Sign() <= 0 {
		return nil, fmt.Errorf("encoding: plaintext bound must be positive")
	}
	if slotMax == nil || slotMax.Sign() <= 0 {
		return nil, fmt.Errorf("encoding: slot magnitude must be positive")
	}
	// Biased slot values live in [0, 2·slotMax]; one extra guard bit
	// keeps the largest of them strictly below 2^{w-1}.
	width := uint(new(big.Int).Lsh(slotMax, 1).BitLen()) + 1
	slots := (plainBound.BitLen() - 1) / int(width)
	if slots < 1 {
		return nil, fmt.Errorf("encoding: %d-bit slots exceed the %d-bit plaintext space",
			width, plainBound.BitLen())
	}
	mask := new(big.Int).Lsh(big.NewInt(1), width)
	mask.Sub(mask, big.NewInt(1))
	return &Packer{
		slots:   slots,
		width:   width,
		bias:    new(big.Int).Set(slotMax),
		slotMax: new(big.Int).Set(slotMax),
		mask:    mask,
	}, nil
}

// NewProductPacker sizes slots for masked cross-products: each slot's
// final value is one product x·y plus one zero-sum mask share, so
// |value| ≤ maxProduct + terms·maskBound (ZeroSumMasks' balancing last
// share can reach (terms−1)·maskBound in magnitude).
func NewProductPacker(plainBound *big.Int, maxProduct int64, maskBound *big.Int, terms int) (*Packer, error) {
	if maxProduct < 0 || terms < 1 {
		return nil, fmt.Errorf("encoding: product packer needs maxProduct ≥ 0 and terms ≥ 1")
	}
	slotMax := new(big.Int).Mul(maskBound, big.NewInt(int64(terms)))
	slotMax.Add(slotMax, big.NewInt(maxProduct))
	return NewPacker(plainBound, slotMax)
}

// NewComparePacker sizes slots for masked comparison replies
// t = r·(b−a) + r′ with r ∈ [1, 2^maskBits], r′ ∈ [0, r) and
// a, b ∈ [−1, max+1]: |t| < 2^maskBits·(max+2).
func NewComparePacker(plainBound *big.Int, max int64, maskBits int) (*Packer, error) {
	if max < 0 || maskBits < 1 {
		return nil, fmt.Errorf("encoding: compare packer needs max ≥ 0 and maskBits ≥ 1")
	}
	slotMax := new(big.Int).Lsh(big.NewInt(max+2), uint(maskBits))
	return NewPacker(plainBound, slotMax)
}

// NewUplinkComparePacker sizes slots for the packed-uplink ("full")
// comparison form: the reply still decrypts to t = r·(b−a) + r′ per
// slot, but the κ-bit multiplier r is applied homomorphically inside
// the slot rather than multiplied into a finished plaintext before
// packing: the uplink ciphertext ct = E(−a·2^{w·σ}) arrives negated and
// pre-shifted to a slot σ at or below the instance's slot s, and
// ct^{r·2^{w·(s−σ)}} places −r·a into slot s (a derived base E(−a),
// built negated by the folder, is raised to r·2^{w·s}).
//
// # Per-slot-mask slot-width derivation
//
// The full form's widest batches are derived-base batches: the uplink
// ciphertext E(a) is assembled homomorphically from retained
// per-instance ciphertexts (e.g. a difference of two dot-product
// ciphertexts), so both operands are *signed differences* in
// [−max, max] rather than values in [0, max]. With r ∈ [1, 2^maskBits],
// r′ ∈ [0, r), a ∈ [−max, max] and the Less-shifted b′ ∈ [−max−1, max],
// the finished slot value t = r·(b′−a) + r′ is bounded by
// 2^maskBits·(2·max+2). The slot magnitude is therefore re-derived with
// the κ-bit mask multiplied into the *doubled* operand spread, M =
// 2^maskBits·(2·max+3) (the same one-unit slack NewComparePacker
// keeps), and w = bits(2·M) + 1 holds the biased slot with the standard
// carry-guard bit. The widened slot costs capacity: keys whose
// plaintext space cannot fit even one such slot are rejected here (S
// would be 0) and must run "slots" or "off" packing instead.
func NewUplinkComparePacker(plainBound *big.Int, max int64, maskBits int) (*Packer, error) {
	if plainBound == nil || plainBound.Sign() <= 0 {
		return nil, fmt.Errorf("encoding: plaintext bound must be positive")
	}
	if max < 0 || maskBits < 1 {
		return nil, fmt.Errorf("encoding: uplink compare packer needs max ≥ 0 and maskBits ≥ 1")
	}
	slotMax := big.NewInt(max)
	slotMax.Lsh(slotMax, 1).Add(slotMax, big.NewInt(3))
	slotMax.Lsh(slotMax, uint(maskBits))
	width := uint(new(big.Int).Lsh(slotMax, 1).BitLen()) + 1
	slots := (plainBound.BitLen() - 1) / int(width)
	if slots < 1 {
		return nil, fmt.Errorf("encoding: the %d-bit per-slot mask widens uplink slots to %d bits, past the %d-bit plaintext space",
			maskBits, width, plainBound.BitLen())
	}
	mask := new(big.Int).Lsh(big.NewInt(1), width)
	mask.Sub(mask, big.NewInt(1))
	return &Packer{
		slots:   slots,
		width:   width,
		bias:    new(big.Int).Set(slotMax),
		slotMax: new(big.Int).Set(slotMax),
		mask:    mask,
	}, nil
}

// NewSumPacker sizes slots for masked sums known to land in [0, bound):
// non-negative, so the bias is only insurance against protocol drift.
func NewSumPacker(plainBound *big.Int, bound int64) (*Packer, error) {
	if bound < 1 {
		return nil, fmt.Errorf("encoding: sum packer needs bound ≥ 1")
	}
	return NewPacker(plainBound, big.NewInt(bound))
}

// OneSlot returns p capped at one slot: the degenerate S = 1 packing, one
// biased value per ciphertext, with p's slot width and bias.
func (p *Packer) OneSlot() *Packer {
	one := *p
	one.slots = 1
	return &one
}

// Slots returns S, the number of values one plaintext carries.
func (p *Packer) Slots() int { return p.slots }

// Width returns w, the bit width of one slot.
func (p *Packer) Width() uint { return p.width }

// SlotMax returns the largest magnitude a slot's final value may hold.
func (p *Packer) SlotMax() *big.Int { return new(big.Int).Set(p.slotMax) }

// Bias returns the per-slot shift (equal to SlotMax).
func (p *Packer) Bias() *big.Int { return new(big.Int).Set(p.bias) }

// Groups returns ⌈n/S⌉: how many packed plaintexts carry n values.
func (p *Packer) Groups(n int) int {
	return (n + p.slots - 1) / p.slots
}

// GroupLen returns how many of n values land in group g (the last group
// may be short; slots past it stay zero and carry no bias).
func (p *Packer) GroupLen(n, g int) int {
	if rem := n - g*p.slots; rem < p.slots {
		return rem
	}
	return p.slots
}

// SlotIndex maps instance i of a flat batch onto its packed position:
// group g = i/S, slot s = i%S — the inverse of the g·S+s flattening
// Groups/GroupLen imply.
func (p *Packer) SlotIndex(i int) (group, slot int) {
	return i / p.slots, i % p.slots
}

// Pack encodes up to S values, |v| ≤ SlotMax each, into one biased
// plaintext. Slots beyond len(vals) stay zero (no bias), so a short
// final group packs cleanly.
func (p *Packer) Pack(vals []*big.Int) (*big.Int, error) {
	if len(vals) > p.slots {
		return nil, fmt.Errorf("encoding: %d values exceed %d slots", len(vals), p.slots)
	}
	packed := new(big.Int)
	slot := new(big.Int)
	for s, v := range vals {
		if v.CmpAbs(p.slotMax) > 0 {
			return nil, fmt.Errorf("encoding: slot %d value exceeds the slot magnitude bound", s)
		}
		slot.Add(v, p.bias)
		packed.Or(packed, new(big.Int).Lsh(slot, p.width*uint(s)))
	}
	return packed, nil
}

// PackInt64 is Pack for int64 values.
func (p *Packer) PackInt64(vals []int64) (*big.Int, error) {
	bigs := make([]*big.Int, len(vals))
	for i, v := range vals {
		bigs[i] = big.NewInt(v)
	}
	return p.Pack(bigs)
}

// PackRaw encodes up to S non-negative values without adding the bias —
// the form a mid-protocol party contributes to an accumulating packed
// ciphertext whose bias was already supplied once by the originator.
func (p *Packer) PackRaw(vals []*big.Int) (*big.Int, error) {
	if len(vals) > p.slots {
		return nil, fmt.Errorf("encoding: %d values exceed %d slots", len(vals), p.slots)
	}
	packed := new(big.Int)
	for s, v := range vals {
		if v.Sign() < 0 || v.Cmp(p.slotMax) > 0 {
			return nil, fmt.Errorf("encoding: raw slot %d value outside [0, slotMax]", s)
		}
		packed.Or(packed, new(big.Int).Lsh(v, p.width*uint(s)))
	}
	return packed, nil
}

// Unpack extracts the first count slots of a packed plaintext and
// removes the bias, returning the signed slot values.
func (p *Packer) Unpack(packed *big.Int, count int) ([]*big.Int, error) {
	if count < 0 || count > p.slots {
		return nil, fmt.Errorf("encoding: cannot unpack %d of %d slots", count, p.slots)
	}
	if packed.Sign() < 0 || packed.BitLen() > p.slots*int(p.width) {
		return nil, fmt.Errorf("encoding: value outside the packed range")
	}
	vals := make([]*big.Int, count)
	shifted := new(big.Int).Set(packed)
	for s := 0; s < count; s++ {
		slot := new(big.Int).And(shifted, p.mask)
		vals[s] = slot.Sub(slot, p.bias)
		shifted.Rsh(shifted, p.width)
	}
	return vals, nil
}

// UnpackInt64 is Unpack for slot values known to fit int64.
func (p *Packer) UnpackInt64(packed *big.Int, count int) ([]int64, error) {
	bigs, err := p.Unpack(packed, count)
	if err != nil {
		return nil, err
	}
	vals := make([]int64, len(bigs))
	for i, v := range bigs {
		if !v.IsInt64() {
			return nil, fmt.Errorf("encoding: slot %d value overflows int64", i)
		}
		vals[i] = v.Int64()
	}
	return vals, nil
}

// Shift returns v·2^{w·slot}: v placed into the given slot of a packed
// plaintext — how an uplink sender pre-shifts its operands (mpc's row-dot
// columns, compare's masked operands) so the folding peer need not.
// Homomorphic placement does not go through it — paillier.SlotFold takes
// the width and the unshifted scalars, so shifted exponents are never
// materialised.
func (p *Packer) Shift(v *big.Int, slot int) *big.Int {
	return new(big.Int).Lsh(v, p.width*uint(slot))
}

// FoldShift folds per-slot contributions into one raw packed integer,
// Σ_s vals[s]·2^{w·s} — the plaintext mirror of the homomorphic slot
// fold Π_s ct_s^{2^{w·s}} the packed-uplink forms use. Unlike
// Pack/PackRaw it adds no bias and performs no range checks: the
// per-slot values are mid-protocol partials (possibly negative, exact
// in ℤ_n) whose final in-range value the engine's own operand checks
// establish.
func (p *Packer) FoldShift(vals []*big.Int) *big.Int {
	packed := new(big.Int)
	for s, v := range vals {
		packed.Add(packed, p.Shift(v, s))
	}
	return packed
}
