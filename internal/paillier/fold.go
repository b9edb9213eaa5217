package paillier

import (
	"fmt"
	"math/big"
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
// the top slot down: one shared chain of squarings, about width·len(slots)
// of them, and each term multiplies its base in where its scalar has a
// bit — instead of one exponentiation of up to width·len(slots) bits per
// term. Bases with a negative scalar are inverted together, with one
// modular inversion for the whole fold; when one of them (or their
// product) is not a unit mod n² — a malformed peer ciphertext — the
// result is ErrNotInvertible.
func (pk *PublicKey) SlotFold(init *big.Int, width uint, slots [][]SlotTerm) (*big.Int, error) {
	if err := pk.validCiphertext(init); err != nil {
		return nil, err
	}
	if width == 0 {
		return nil, fmt.Errorf("paillier: slot fold needs a positive slot width")
	}
	// Per term: |scalar| and the factor to multiply in — the base, or its
	// inverse under a negative scalar.
	type factor struct{ abs, base *big.Int }
	factors := make([][]factor, len(slots))
	var negs []*big.Int // the factors' bases awaiting inversion, in place
	maxBits := 0
	for s, terms := range slots {
		factors[s] = make([]factor, len(terms))
		for i, t := range terms {
			if err := pk.validCiphertext(t.Base); err != nil {
				return nil, err
			}
			f := factor{abs: new(big.Int).Abs(t.Scalar), base: t.Base}
			if t.Scalar.Sign() < 0 {
				f.base = new(big.Int).Set(t.Base)
				negs = append(negs, f.base)
			}
			if n := f.abs.BitLen(); n > maxBits {
				maxBits = n
			}
			factors[s][i] = f
		}
	}
	if err := pk.invertAll(negs); err != nil {
		return nil, err
	}

	var prod, quo big.Int // scratch, so the chain allocates nothing per step
	mulMod := func(z, x, y *big.Int) {
		prod.Mul(x, y)
		quo.QuoRem(&prod, pk.NSquared, z)
	}
	// chain is the product of the terms seen so far. It starts at the
	// first set bit, which skips the leading squarings of 1, and init
	// joins at the end because it must not be raised.
	var chain *big.Int
	w := int(width)
	for b := (len(slots)-1)*w + maxBits - 1; b >= 0; b-- {
		if chain != nil {
			mulMod(chain, chain, chain)
		}
		// The slots whose scalars reach global bit b: only b/w, unless a
		// scalar is wider than its slot.
		for s := min(b/w, len(slots)-1); s >= 0 && b-s*w < maxBits; s-- {
			for _, f := range factors[s] {
				switch {
				case f.abs.Bit(b-s*w) == 0:
				case chain == nil:
					chain = new(big.Int).Set(f.base)
				default:
					mulMod(chain, chain, f.base)
				}
			}
		}
	}
	if chain == nil {
		return new(big.Int).Set(init), nil
	}
	mulMod(chain, chain, init)
	return chain, nil
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
