package yao

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// decryptSlow is the reference Da: y^D mod N with no CRT and no kernel.
func (k *RSAKey) decryptSlow(y *big.Int) *big.Int {
	return new(big.Int).Exp(y, k.D, k.N)
}

// withoutKernel returns a copy of k that decrypts on math/big, as a key
// with wider primes does.
func withoutKernel(k *RSAKey) *RSAKey {
	slow := *k
	slow.fast = nil
	return &slow
}

// TestDecryptMatchesReference: Decrypt is y^D mod N for every y ≥ 0 — on
// the four-limb kernel up to 512 bits, on math/big above, and on math/big
// with the kernel taken away — including the values an honest range never
// produces: 0, 1, N − 1, multiples of p and of q, and y ≥ N.
func TestDecryptMatchesReference(t *testing.T) {
	for _, bits := range []int{256, 257, 384, 512, 768, 1024} {
		t.Run(fmt.Sprint(bits), func(t *testing.T) {
			k, err := GenerateRSAKey(rand.Reader, bits)
			if err != nil {
				t.Fatal(err)
			}
			if kernel := k.fast != nil; kernel != (bits <= 512) {
				t.Fatalf("kernel in use = %v at %d bits", kernel, bits)
			}
			ys := []*big.Int{
				new(big.Int), one, two, new(big.Int).Sub(k.N, one), k.N, new(big.Int).Add(k.N, one),
				k.p, k.q, new(big.Int).Lsh(k.p, 7), new(big.Int).Mul(k.q, big.NewInt(12345)),
				new(big.Int).Sub(k.p, one), new(big.Int).Add(k.q, one),
				new(big.Int).Lsh(k.N, 70), new(big.Int).Mul(k.N, k.N),
			}
			for i := 0; i < 20; i++ {
				y, err := rand.Int(rand.Reader, new(big.Int).Lsh(k.N, 3))
				if err != nil {
					t.Fatal(err)
				}
				ys = append(ys, y)
			}
			slow := withoutKernel(k)
			for _, y := range ys {
				before := new(big.Int).Set(y)
				want := k.decryptSlow(y)
				if got := k.Decrypt(y); got.Cmp(want) != 0 {
					t.Fatalf("Decrypt(%v) = %v, want %v", y, got, want)
				}
				if got := slow.Decrypt(y); got.Cmp(want) != 0 {
					t.Fatalf("math/big Decrypt(%v) = %v, want %v", y, got, want)
				}
				if y.Cmp(before) != 0 {
					t.Fatalf("Decrypt changed its argument %v", before)
				}
			}
		})
	}
}

// TestDecryptRangeMatchesDecrypt: the range equals one reference Da per
// value of base + t mod N, on both paths, for ranges that start at 0, that
// wrap past N, and whose residues wrap past p or past q — up to the 452
// values of one bench ympp comparison.
func TestDecryptRangeMatchesDecrypt(t *testing.T) {
	for _, bits := range []int{256, 512, 768} {
		k, err := GenerateRSAKey(rand.Reader, bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, count := range []int{1, 2, 37, 452} {
			half := big.NewInt(int64((count + 1) / 2))
			for _, base := range []*big.Int{
				new(big.Int),
				new(big.Int).Sub(k.N, half),
				new(big.Int).Sub(k.p, half),
				new(big.Int).Sub(k.q, half),
			} {
				want := make([]*big.Int, count)
				for i := range want {
					v := new(big.Int).Add(base, big.NewInt(int64(i)))
					want[i] = k.decryptSlow(v.Mod(v, k.N))
				}
				for _, key := range []*RSAKey{k, withoutKernel(k)} {
					ys := decryptRange(nil, key, base, count)
					if len(ys) != count {
						t.Fatalf("%d bits: %d values, want %d", bits, len(ys), count)
					}
					for i, y := range ys {
						if y.Cmp(want[i]) != 0 {
							t.Fatalf("%d bits, base %v, count %d: ys[%d] = %v, want %v", bits, base, count, i, y, want[i])
						}
					}
				}
			}
		}
	}
}
