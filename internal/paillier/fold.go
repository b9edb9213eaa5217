package paillier

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// SlotTerm is one factor Base^Scalar of a slot's contribution to a packed
// ciphertext: Base is a ciphertext, Scalar the signed plaintext it is
// multiplied by, before the slot's shift.
type SlotTerm struct {
	Base   *big.Int
	Scalar *big.Int
}

// SlotFold returns init · Π_s Π_{t ∈ slots[s]} t.Base^{t.Scalar·2^{width·s}}
// mod n²: every term's product placed into its slot of the packed
// plaintext of init. It is the one homomorphic slot fold behind every
// packed reply (compare's masked differences, mpc's scatter, dot-many and
// bias folds).
//
// The product is evaluated as Horner's rule on the exponent bits, from
// the top slot down: one shared chain of squarings,
// (len(slots)−1)·width plus the widest scalar's bits of them, instead of
// one exponentiation of up to that many bits per term. The chain is the
// bill, so a caller whose bases already carry part of their shift (a
// comparison uplink pre-shifted by its sender) files each term under its
// slot relative to that shift and keeps len(slots) short.
//
// Every step of the chain — a squaring or a multiply-in — is one
// Montgomery multiplication mod n² (see montMul), three math/big
// products and no division, against the constants the key's constructor
// computed. Each base enters Montgomery form once, and init joins last by
// one Montgomery multiplication against its normal form, which lands the
// result back in normal form: the residue is exactly the one a
// multiply-and-reduce chain returns.
//
// Within a slot, the terms are taken g at a time (Straus): each group
// multiplies out its 2^g − 1 subset products once, and at every bit of
// the chain multiplies in the one entry its scalars' bits select, instead
// of one base per set bit. g is 3 when the widest scalar has 16 bits or
// more (a comparison reply's masks), where the tables pay for themselves
// many times over, and 1 below that (a row-dot's coordinates), where
// they would cost more than they save.
//
// A base can carry the sign of its scalar in its plaintext — a masked
// comparison uplink goes up negated, and a derived base is built negated
// by its folder — so every comparison fold raises by positive masks.
// Negative scalars stay legal for every caller: bases with one are inverted
// together, with one modular inversion for the whole fold; when one of
// them (or their product) is not a unit mod n² — a malformed ciphertext
// — the result is ErrNotInvertible.
func (pk *PublicKey) SlotFold(init *big.Int, width uint, slots [][]SlotTerm) (*big.Int, error) {
	if err := pk.validCiphertext(init); err != nil {
		return nil, err
	}
	if width == 0 {
		return nil, fmt.Errorf("paillier: slot fold needs a positive slot width")
	}
	var negs []*big.Int // copies of the bases under negative scalars, inverted in place
	maxBits := 0
	for _, terms := range slots {
		for _, t := range terms {
			if err := pk.validCiphertext(t.Base); err != nil {
				return nil, err
			}
			if t.Scalar.Sign() < 0 {
				negs = append(negs, new(big.Int).Set(t.Base))
			}
			maxBits = max(maxBits, t.Scalar.BitLen())
		}
	}
	if err := pk.invertAll(negs); err != nil {
		return nil, err
	}
	if maxBits == 0 {
		return new(big.Int).Set(init), nil
	}
	g := 1
	if maxBits >= 16 {
		g = maxGroup
	}

	a := foldArenas.Get().(*foldArena)
	defer foldArenas.Put(a)
	a.groups, a.slotStart, a.used = a.groups[:0], a.slotStart[:0], 0
	for _, terms := range slots {
		a.slotStart = append(a.slotStart, len(a.groups))
		var grp *foldGroup // the slot's open group, until it holds g terms
		for _, t := range terms {
			base := t.Base
			if t.Scalar.Sign() < 0 {
				base, negs = negs[0], negs[1:]
			}
			if t.Scalar.Sign() == 0 {
				continue
			}
			if grp == nil || grp.n == g {
				a.groups = append(a.groups, foldGroup{table: a.used})
				grp = &a.groups[len(a.groups)-1]
				a.used += 1<<g - 1
			}
			// Entry 2^i − 1 is base i in Montgomery form: base·R² · R⁻¹.
			pk.montMul(a, a.entry(grp.table+1<<grp.n-1), base, pk.montRR)
			grp.scalars[grp.n] = t.Scalar.Bits() // |scalar|, whatever its sign
			grp.n++
		}
	}
	a.slotStart = append(a.slotStart, len(a.groups))
	// Entry mask − 1 is the product of the bases in mask: its lowest base
	// times the entry of the rest.
	for i := range a.groups {
		grp := &a.groups[i]
		for mask := 3; mask < 1<<grp.n; mask++ {
			if low := mask & -mask; low != mask {
				pk.montMul(a, a.entry(grp.table+mask-1), a.entry(grp.table+low-1), a.entry(grp.table+mask-low-1))
			}
		}
	}

	// chain is the product of the terms seen so far, in Montgomery form.
	// It starts at the first set bit, which skips the leading squarings
	// of 1, and init joins at the end because it must not be raised.
	chain, started := &a.chain, false
	w := int(width)
	for b := (len(slots)-1)*w + maxBits - 1; b >= 0; b-- {
		if started {
			pk.montMul(a, chain, chain, chain)
		}
		// The slots whose scalars reach global bit b: only b/w, unless a
		// scalar is wider than its slot.
		for s := min(b/w, len(slots)-1); s >= 0 && b-s*w < maxBits; s-- {
			for i := a.slotStart[s]; i < a.slotStart[s+1]; i++ {
				grp := &a.groups[i]
				mask := 0
				for j, ws := range grp.scalars[:grp.n] {
					mask |= int(wordBit(ws, b-s*w)) << j
				}
				switch {
				case mask == 0:
				case !started:
					chain.Set(a.entry(grp.table + mask - 1))
					started = true
				default:
					pk.montMul(a, chain, chain, a.entry(grp.table+mask-1))
				}
			}
		}
	}
	out := new(big.Int)
	pk.montMul(a, out, chain, init)
	return out, nil
}

// foldArena is one fold's scratch, pooled so that a fold allocates only
// its result (and the copies of any bases it inverts): the Montgomery
// multiplication's intermediates, the chain, the groups and their tables.
type foldArena struct {
	prod, lo, m, u, chain big.Int
	groups                []foldGroup
	slotStart             []int      // slot s's groups are groups[slotStart[s]:slotStart[s+1]]
	entries               []*big.Int // every group's table, in Montgomery form
	used                  int        // entries the fold has claimed
}

// maxGroup is the most terms a fold multiplies in together, from a
// table of 2^maxGroup − 1 subset products.
const maxGroup = 3

// foldGroup is up to maxGroup terms of one slot, multiplied in together:
// entry table+mask−1 of the arena holds the product of the bases whose
// bit is set in mask, and scalars[i] the words of term i's |scalar|.
type foldGroup struct {
	scalars [maxGroup][]big.Word
	n       int
	table   int
}

var foldArenas = sync.Pool{New: func() any { return new(foldArena) }}

// entry returns table entry i, growing the arena as a fold needs.
func (a *foldArena) entry(i int) *big.Int {
	for len(a.entries) <= i {
		a.entries = append(a.entries, new(big.Int))
	}
	return a.entries[i]
}

// wordBit is bit j of the natural number with little-endian words ws.
func wordBit(ws []big.Word, j int) big.Word {
	if i := j / bits.UintSize; i < len(ws) {
		return ws[i] >> (j % bits.UintSize) & 1
	}
	return 0
}

// montMul sets z = x·y·R⁻¹ mod n² for x, y < n² (Montgomery's REDC, R =
// 2^{W·montK}), from three math/big products: T = x·y, m = (T mod R)·m′
// mod R with m′ = −(n²)⁻¹ mod R, and m·n². T + m·n² is divisible by R and
// below 2·n²·R, so a word shift and at most one subtraction finish it. z
// may alias x or y; a holds the intermediates.
func (pk *PublicKey) montMul(a *foldArena, z, x, y *big.Int) {
	k := pk.montK
	a.prod.Mul(x, y)
	t := a.prod.Bits()
	a.lo.SetBits(t[:min(len(t), k)]) // reads prod's low words in place
	a.m.Mul(&a.lo, pk.montNeg)
	mw := a.m.Bits()
	a.m.SetBits(mw[:min(len(mw), k)])
	a.u.Mul(&a.m, pk.NSquared)
	a.u.Add(&a.u, &a.prod)
	z.Rsh(&a.u, uint(k*bits.UintSize))
	if z.Cmp(pk.NSquared) >= 0 {
		z.Sub(z, pk.NSquared)
	}
}

// Inverses returns c⁻¹ mod n² for every ciphertext c in cs, with one
// modular inversion for the batch (invertAll) — ErrCiphertextRange or
// ErrNotInvertible when some c is no unit of Z_{n²}. A folder that
// builds its own negated bases pays for their inversions here, once.
func (pk *PublicKey) Inverses(cs []*big.Int) ([]*big.Int, error) {
	inv := make([]*big.Int, len(cs))
	for i, c := range cs {
		if err := pk.validCiphertext(c); err != nil {
			return nil, err
		}
		inv[i] = new(big.Int).Set(c)
	}
	if err := pk.invertAll(inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// invertAll replaces every x in xs by x⁻¹ mod n² with one modular
// inversion (Montgomery's trick: invert the running product, then peel
// the factors off from the back).
func (pk *PublicKey) invertAll(xs []*big.Int) error {
	if len(xs) == 0 {
		return nil
	}
	// prefix[i] = x_0·…·x_i mod n²
	prefix := make([]*big.Int, len(xs))
	prefix[0] = xs[0]
	for i := 1; i < len(xs); i++ {
		p := new(big.Int).Mul(prefix[i-1], xs[i])
		prefix[i] = p.Mod(p, pk.NSquared)
	}
	inv := new(big.Int).ModInverse(prefix[len(xs)-1], pk.NSquared)
	if inv == nil {
		return ErrNotInvertible
	}
	for i := len(xs) - 1; i > 0; i-- {
		// inv = (x_0·…·x_i)⁻¹: x_i⁻¹ = inv·prefix[i−1], then drop x_i.
		xi := new(big.Int).Mul(inv, prefix[i-1])
		xi.Mod(xi, pk.NSquared)
		inv.Mul(inv, xs[i])
		inv.Mod(inv, pk.NSquared)
		xs[i].Set(xi)
	}
	xs[0].Set(inv)
	return nil
}

// CheckUnits reports whether every c in cs is a ciphertext in Z_{n²} and
// a unit mod n² — ErrCiphertextRange or ErrNotInvertible if not — with one
// gcd for the batch: c is a unit mod n² exactly when gcd(c, n) = 1, and
// that holds for all of them when it holds for their product mod n. A
// fold whose scalars are all non-negative never inverts, so this is how
// its caller refuses a peer ciphertext no honest encryption produces
// before doing any work on it.
func (pk *PublicKey) CheckUnits(cs []*big.Int) error {
	prod := big.NewInt(1)
	for _, c := range cs {
		if err := pk.validCiphertext(c); err != nil {
			return err
		}
		prod.Mul(prod, c)
		prod.Mod(prod, pk.N)
	}
	if new(big.Int).GCD(nil, nil, prod, pk.N).Cmp(one) != 0 {
		return ErrNotInvertible
	}
	return nil
}
