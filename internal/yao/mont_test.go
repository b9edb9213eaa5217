package yao

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

var r256 = new(big.Int).Lsh(one, 256)

// pow2 returns 2^k + d.
func pow2(k uint, d int64) *big.Int {
	z := new(big.Int).Lsh(one, k)
	return z.Add(z, big.NewInt(d))
}

// store4 is load4's inverse, through the production words.
func store4(x *limbs4) *big.Int {
	return new(big.Int).SetBits(words(x[:]))
}

// edgeModuli are odd moduli at the kernel's carry edges: the top bit set
// (the running sum overflows four limbs), just above 2^255, the smallest
// legal one, and one, two and three zero top limbs.
func edgeModuli() []*big.Int {
	return []*big.Int{
		pow2(256, -189),
		pow2(255, 95),
		big.NewInt(3),
		pow2(192, -237),
		pow2(128, -159),
		pow2(64, -59),
		pow2(129, 1),
		pow2(65, 1),
	}
}

// checkMont4 compares the kernel with math/big on one (m, x, y, e): exp,
// and mul with an unreduced left factor — the contract crt4 relies on to
// carry a residue mod q into p's Montgomery form.
func checkMont4(t *testing.T, m, x, y, e *big.Int) {
	t.Helper()
	c := newMont4(m)
	if c == nil {
		t.Fatalf("newMont4(%v) = nil", m)
	}
	xl, el := load4(x), load4(e)
	if got := store4(&xl); got.Cmp(x) != 0 {
		t.Fatalf("load4/words round trip: %v became %v", x, got)
	}
	var z limbs4
	c.exp(&z, &xl, &el)
	if got, want := store4(&z), new(big.Int).Exp(x, e, m); got.Cmp(want) != 0 {
		t.Fatalf("exp(%v, %v) mod %v = %v, want %v", x, e, m, got, want)
	}
	// mul(x, y mod m)·R ≡ x·y (mod m), with the result fully reduced.
	yl := load4(new(big.Int).Mod(y, m))
	c.mul(&z, &xl, &yl)
	got := store4(&z)
	if got.Cmp(m) >= 0 {
		t.Fatalf("mul(%v, %v) mod %v = %v is not reduced", x, y, m, got)
	}
	lhs := new(big.Int).Mul(got, r256)
	rhs := new(big.Int).Mul(x, y)
	if lhs.Mod(lhs, m).Cmp(rhs.Mod(rhs, m)) != 0 {
		t.Fatalf("mul(%v, %v) mod %v = %v: wrong residue", x, y, m, got)
	}
}

// FuzzMont4Exp is the kernel's differential against big.Int.Exp. The
// inputs are big-endian byte strings cut to 256 bits; m is made odd and at
// least 3.
func FuzzMont4Exp(f *testing.F) {
	all1 := pow2(256, -1)
	for _, m := range edgeModuli() {
		xs := []*big.Int{new(big.Int), one, new(big.Int).Sub(m, one), m, all1}
		es := []*big.Int{new(big.Int), one, two, pow2(4, 0), pow2(64, 0), pow2(255, 0), pow2(64, -1), pow2(253, -1), all1}
		for i, x := range xs {
			for _, e := range es {
				f.Add(m.Bytes(), x.Bytes(), xs[(i+2)%len(xs)].Bytes(), e.Bytes())
			}
		}
	}
	f.Fuzz(func(t *testing.T, mb, xb, yb, eb []byte) {
		cut := func(b []byte) *big.Int {
			if len(b) > 32 {
				b = b[:32]
			}
			return new(big.Int).SetBytes(b)
		}
		m := cut(mb)
		m.SetBit(m, 0, 1)
		if m.BitLen() < 2 {
			m.SetInt64(3)
		}
		checkMont4(t, m, cut(xb), cut(yb), cut(eb))
	})
}

// TestMont4Random runs the same differential over random operands for
// every modulus width from 2 to 256 bits.
func TestMont4Random(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for bits := 2; bits <= 256; bits++ {
		m := new(big.Int).Rand(rng, pow2(uint(bits-1), 0))
		m.SetBit(m, bits-1, 1).SetBit(m, 0, 1)
		for i := 0; i < 4; i++ {
			checkMont4(t, m, new(big.Int).Rand(rng, r256), new(big.Int).Rand(rng, r256), new(big.Int).Rand(rng, r256))
		}
	}
}

func TestNewMont4Rejects(t *testing.T) {
	for _, m := range []*big.Int{new(big.Int), one, two, big.NewInt(-7), pow2(255, 0), pow2(256, 1), pow2(300, 1)} {
		if newMont4(m) != nil {
			t.Errorf("newMont4(%v) accepted a modulus that is not odd in [3, 2^256)", m)
		}
	}
}

// TestMont4Helpers covers what crt4 composes around the exponentiations:
// sub, and mul8 followed by add8.
func TestMont4Helpers(t *testing.T) {
	rng := mrand.New(mrand.NewSource(12))
	for _, m := range edgeModuli() {
		c := newMont4(m)
		top := new(big.Int).Sub(m, one)
		for _, pair := range [][2]*big.Int{
			{new(big.Int), top}, {top, new(big.Int)}, {top, top},
			{new(big.Int).Rand(rng, m), new(big.Int).Rand(rng, m)},
		} {
			x, y := load4(pair[0]), load4(pair[1])
			var z limbs4
			c.sub(&z, &x, &y)
			want := new(big.Int).Sub(pair[0], pair[1])
			if got := store4(&z); got.Cmp(want.Mod(want, m)) != 0 {
				t.Errorf("sub(%v, %v) mod %v = %v, want %v", pair[0], pair[1], m, got, want)
			}
		}
	}
	all1 := pow2(256, -1)
	for _, tr := range [][3]*big.Int{
		{all1, all1, all1},
		{new(big.Int), all1, all1},
		{new(big.Int).Rand(rng, r256), new(big.Int).Rand(rng, r256), new(big.Int).Rand(rng, r256)},
	} {
		x, y, a := load4(tr[0]), load4(tr[1]), load4(tr[2])
		var z [8]uint64
		mul8(&z, &x, &y)
		add8(&z, &a)
		want := new(big.Int).Mul(tr[0], tr[1])
		if got := new(big.Int).SetBits(words(z[:])); got.Cmp(want.Add(want, tr[2])) != 0 {
			t.Errorf("mul8(%v, %v) + %v = %v, want %v", tr[0], tr[1], tr[2], got, want)
		}
	}
}
