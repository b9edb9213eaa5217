package yao

import (
	"math/big"
	"math/bits"
)

// The four-limb kernel: Montgomery arithmetic modulo one odd m < 2^256 on
// [4]uint64 stack arrays (little-endian limbs, R = 2^256), fully unrolled:
// on amd64 one assembly CIOS multiply (mont_amd64.s), elsewhere a product
// into eight limbs over math/bits, then one Montgomery reduction. It
// exists for one caller, the CRT halves of RSA decryption, and for one
// width: at four limbs math/big's per-call set-up costs as much as its
// arithmetic, from eight limbs up its assembly wins (measurements in
// ROADMAP), so everything is written out limb by limb and nothing takes a
// width. Like math/big's Exp it is not constant-time (see the package
// comment).

type limbs4 = [4]uint64

// mont4 is the per-modulus context, built once per prime at key
// generation.
type mont4 struct {
	m   limbs4 // the modulus
	k0  uint64 // −m⁻¹ mod 2^64
	one limbs4 // R mod m, the Montgomery form of 1
	rr  limbs4 // R² mod m, which carries a value into Montgomery form
}

// newMont4 returns the context of m, or nil when m is not an odd number
// in [3, 2^256) — "fits four limbs" is the whole rule for using the kernel.
func newMont4(m *big.Int) *mont4 {
	if m.Sign() <= 0 || m.Bit(0) == 0 || m.BitLen() < 2 || m.BitLen() > 256 {
		return nil
	}
	c := &mont4{m: load4(m)}
	// Newton's iteration doubles the correct low bits of m⁻¹ mod 2^64 each
	// round, starting from the three that m·m ≡ 1 (mod 8) gives any odd m.
	inv := c.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - c.m[0]*inv
	}
	c.k0 = -inv
	r := new(big.Int).Lsh(one, 256)
	c.one = load4(r.Mod(r, m))
	r.Lsh(one, 512)
	c.rr = load4(r.Mod(r, m))
	return c
}

// load4 returns the limbs of 0 ≤ x < 2^256, whatever the width of a
// big.Word.
func load4(x *big.Int) (z limbs4) {
	for i, w := range x.Bits() {
		z[i*bits.UintSize/64] |= uint64(w) << (i * bits.UintSize % 64)
	}
	return z
}

// words returns x as big.Words, whatever their width.
func words(x []uint64) []big.Word {
	z := make([]big.Word, len(x)*64/bits.UintSize)
	for i := range z {
		z[i] = big.Word(x[i*bits.UintSize/64] >> (i * bits.UintSize % 64))
	}
	return z
}

// mul8 sets t = x·y over the integers: one row of four products per limb
// of y, its low words added in one carry chain and its high words in a
// second.
func mul8(t *[8]uint64, x, y *limbs4) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var t0, t1, t2, t3, t4, t5, t6, t7, c uint64

	yi := y[0]
	h0, l0 := bits.Mul64(x0, yi)
	h1, l1 := bits.Mul64(x1, yi)
	h2, l2 := bits.Mul64(x2, yi)
	h3, l3 := bits.Mul64(x3, yi)
	t0 = l0
	t1, c = bits.Add64(l1, h0, 0)
	t2, c = bits.Add64(l2, h1, c)
	t3, c = bits.Add64(l3, h2, c)
	t4 = h3 + c

	yi = y[1]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t1, c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, l2, c)
	t4, t5 = bits.Add64(t4, l3, c)
	t2, c = bits.Add64(t2, h0, 0)
	t3, c = bits.Add64(t3, h1, c)
	t4, c = bits.Add64(t4, h2, c)
	t5 += h3 + c

	yi = y[2]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t2, c = bits.Add64(t2, l0, 0)
	t3, c = bits.Add64(t3, l1, c)
	t4, c = bits.Add64(t4, l2, c)
	t5, t6 = bits.Add64(t5, l3, c)
	t3, c = bits.Add64(t3, h0, 0)
	t4, c = bits.Add64(t4, h1, c)
	t5, c = bits.Add64(t5, h2, c)
	t6 += h3 + c

	yi = y[3]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t3, c = bits.Add64(t3, l0, 0)
	t4, c = bits.Add64(t4, l1, c)
	t5, c = bits.Add64(t5, l2, c)
	t6, t7 = bits.Add64(t6, l3, c)
	t4, c = bits.Add64(t4, h0, 0)
	t5, c = bits.Add64(t5, h1, c)
	t6, c = bits.Add64(t6, h2, c)
	t7 += h3 + c

	*t = [8]uint64{t0, t1, t2, t3, t4, t5, t6, t7}
}

// reduce sets z = t·R⁻¹ mod m, fully reduced, for any t < m·R, where
// k0 = −m⁻¹ mod 2^64. Four rounds, one per low limb: add the multiple q·m
// that zeroes the limb, low words in one carry chain and high words in a
// second. m may have its top bit set, so what the chains carry out of the
// five limbs a round touches is kept in e and enters the next round one
// limb up; after the last round (e, t7…t4) < 2m and one conditional
// subtraction finishes.
func reduce(z *limbs4, t *[8]uint64, m *limbs4, k0 uint64) {
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	t0, t1, t2, t3, t4, t5, t6, t7 := t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]
	var e, cy uint64

	q := t0 * k0
	h0, l0 := bits.Mul64(q, m0)
	h1, l1 := bits.Mul64(q, m1)
	h2, l2 := bits.Mul64(q, m2)
	h3, l3 := bits.Mul64(q, m3)
	_, cy = bits.Add64(t0, l0, 0)
	t1, cy = bits.Add64(t1, l1, cy)
	t2, cy = bits.Add64(t2, l2, cy)
	t3, cy = bits.Add64(t3, l3, cy)
	t4, e = bits.Add64(t4, 0, cy)
	t1, cy = bits.Add64(t1, h0, 0)
	t2, cy = bits.Add64(t2, h1, cy)
	t3, cy = bits.Add64(t3, h2, cy)
	t4, cy = bits.Add64(t4, h3, cy)
	e += cy

	q = t1 * k0
	h0, l0 = bits.Mul64(q, m0)
	h1, l1 = bits.Mul64(q, m1)
	h2, l2 = bits.Mul64(q, m2)
	h3, l3 = bits.Mul64(q, m3)
	_, cy = bits.Add64(t1, l0, 0)
	t2, cy = bits.Add64(t2, l1, cy)
	t3, cy = bits.Add64(t3, l2, cy)
	t4, cy = bits.Add64(t4, l3, cy)
	t5, e = bits.Add64(t5, e, cy)
	t2, cy = bits.Add64(t2, h0, 0)
	t3, cy = bits.Add64(t3, h1, cy)
	t4, cy = bits.Add64(t4, h2, cy)
	t5, cy = bits.Add64(t5, h3, cy)
	e += cy

	q = t2 * k0
	h0, l0 = bits.Mul64(q, m0)
	h1, l1 = bits.Mul64(q, m1)
	h2, l2 = bits.Mul64(q, m2)
	h3, l3 = bits.Mul64(q, m3)
	_, cy = bits.Add64(t2, l0, 0)
	t3, cy = bits.Add64(t3, l1, cy)
	t4, cy = bits.Add64(t4, l2, cy)
	t5, cy = bits.Add64(t5, l3, cy)
	t6, e = bits.Add64(t6, e, cy)
	t3, cy = bits.Add64(t3, h0, 0)
	t4, cy = bits.Add64(t4, h1, cy)
	t5, cy = bits.Add64(t5, h2, cy)
	t6, cy = bits.Add64(t6, h3, cy)
	e += cy

	q = t3 * k0
	h0, l0 = bits.Mul64(q, m0)
	h1, l1 = bits.Mul64(q, m1)
	h2, l2 = bits.Mul64(q, m2)
	h3, l3 = bits.Mul64(q, m3)
	_, cy = bits.Add64(t3, l0, 0)
	t4, cy = bits.Add64(t4, l1, cy)
	t5, cy = bits.Add64(t5, l2, cy)
	t6, cy = bits.Add64(t6, l3, cy)
	t7, e = bits.Add64(t7, e, cy)
	t4, cy = bits.Add64(t4, h0, 0)
	t5, cy = bits.Add64(t5, h1, cy)
	t6, cy = bits.Add64(t6, h2, cy)
	t7, cy = bits.Add64(t7, h3, cy)
	e += cy

	var s0, s1, s2, s3, b uint64
	s0, b = bits.Sub64(t4, m0, 0)
	s1, b = bits.Sub64(t5, m1, b)
	s2, b = bits.Sub64(t6, m2, b)
	s3, b = bits.Sub64(t7, m3, b)
	if e == 0 && b != 0 {
		*z = limbs4{t4, t5, t6, t7}
	} else {
		*z = limbs4{s0, s1, s2, s3}
	}
}

// mul sets z = x·y·R⁻¹ mod m for any x·y < m·R — in particular for any
// x < 2^256 against a reduced y, which is how an unreduced value enters
// Montgomery form. z may alias x or y. The assembly mulMont4 returns the
// same bits as mul8 followed by reduce for every input.
func (c *mont4) mul(z, x, y *limbs4) {
	mulMont4(z, x, y, &c.m, c.k0)
}

// add sets z = x + y mod m for reduced x and y.
func (c *mont4) add(z, x, y *limbs4) {
	var carry, b uint64
	var s, d limbs4
	s[0], carry = bits.Add64(x[0], y[0], 0)
	s[1], carry = bits.Add64(x[1], y[1], carry)
	s[2], carry = bits.Add64(x[2], y[2], carry)
	s[3], carry = bits.Add64(x[3], y[3], carry)
	d[0], b = bits.Sub64(s[0], c.m[0], 0)
	d[1], b = bits.Sub64(s[1], c.m[1], b)
	d[2], b = bits.Sub64(s[2], c.m[2], b)
	d[3], b = bits.Sub64(s[3], c.m[3], b)
	if carry == 0 && b != 0 {
		*z = s
	} else {
		*z = d
	}
}

// sub sets z = x − y mod m for reduced x and y.
func (c *mont4) sub(z, x, y *limbs4) {
	var b, carry uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		z[0], carry = bits.Add64(z[0], c.m[0], 0)
		z[1], carry = bits.Add64(z[1], c.m[1], carry)
		z[2], carry = bits.Add64(z[2], c.m[2], carry)
		z[3], _ = bits.Add64(z[3], c.m[3], carry)
	}
}

// expMont sets z = x^e·R mod m, the Montgomery form of the power, for any
// x < 2^256. Fixed four-bit windows, left to right: sixteen table entries,
// then four squarings and one multiplication per window — also for a zero
// window, which multiplies by the Montgomery 1 — so the sequence of
// operations depends on e's bit length alone, as math/big's does.
func (c *mont4) expMont(z, x, e *limbs4) {
	var table [16]limbs4
	table[0] = c.one
	c.mul(&table[1], x, &c.rr)
	for i := 2; i < 16; i++ {
		c.mul(&table[i], &table[i-1], &table[1])
	}
	windows := 0
	for i := 3; i >= 0; i-- {
		if e[i] != 0 {
			windows = (i*64 + bits.Len64(e[i]) + 3) / 4
			break
		}
	}
	if windows == 0 {
		*z = c.one
		return
	}
	window := func(w int) *limbs4 { return &table[e[w/16]>>(4*(w%16))&15] }
	acc := *window(windows - 1)
	for w := windows - 2; w >= 0; w-- {
		c.mul(&acc, &acc, &acc)
		c.mul(&acc, &acc, &acc)
		c.mul(&acc, &acc, &acc)
		c.mul(&acc, &acc, &acc)
		c.mul(&acc, &acc, window(w))
	}
	*z = acc
}

// exp sets z = x^e mod m for any x < 2^256.
func (c *mont4) exp(z, x, e *limbs4) {
	c.expMont(z, x, e)
	c.mul(z, z, &limbs4{1})
}

// add8 sets t = t + a, which the caller knows to fit eight limbs.
func add8(t *[8]uint64, a *limbs4) {
	var c uint64
	t[0], c = bits.Add64(t[0], a[0], 0)
	t[1], c = bits.Add64(t[1], a[1], c)
	t[2], c = bits.Add64(t[2], a[2], c)
	t[3], c = bits.Add64(t[3], a[3], c)
	t[4], c = bits.Add64(t[4], 0, c)
	t[5], c = bits.Add64(t[5], 0, c)
	t[6], c = bits.Add64(t[6], 0, c)
	t[7] += c
}
