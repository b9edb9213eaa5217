package yao

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/transport"
)

var sink *big.Int

// benchDecrypt times Decrypt over a fixed set of ciphertexts.
func benchDecrypt(b *testing.B, k *RSAKey) {
	ys := make([]*big.Int, 64)
	for i := range ys {
		y, err := rand.Int(rand.Reader, k.N)
		if err != nil {
			b.Fatal(err)
		}
		ys[i] = y
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = k.Decrypt(ys[i%len(ys)])
	}
}

func benchKey(b *testing.B, bits int) *RSAKey {
	k, err := GenerateRSAKey(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// BenchmarkMont4Mul is one Montgomery multiply modulo a 256-bit prime,
// chained so each waits for the last: mont4.mul (assembly on amd64) and
// mul8 followed by reduce.
func BenchmarkMont4Mul(b *testing.B) {
	c := newMont4(benchKey(b, 512).p)
	x := c.rr
	b.Run("mul", func(b *testing.B) {
		z := x
		for i := 0; i < b.N; i++ {
			c.mul(&z, &z, &x)
		}
		sink4 = z
	})
	b.Run("mul8+reduce", func(b *testing.B) {
		z := x
		for i := 0; i < b.N; i++ {
			z = mulOracle(c, &z, &x)
		}
		sink4 = z
	})
}

var sink4 limbs4

// BenchmarkRSADecrypt512 is one Da at DefaultRSABits on the four-limb
// kernel and, with the kernel taken off the same key, on math/big.
func BenchmarkRSADecrypt512(b *testing.B) {
	k := benchKey(b, 512)
	b.Run("kernel", func(b *testing.B) { benchDecrypt(b, k) })
	b.Run("fallback", func(b *testing.B) { benchDecrypt(b, withoutKernel(k)) })
}

// BenchmarkRSADecrypt1024 is the size the kernel does not apply to.
func BenchmarkRSADecrypt1024(b *testing.B) {
	benchDecrypt(b, benchKey(b, 1024))
}

// BenchmarkDecryptRange512 is Alice's step 3 for one comparison of the
// bench ympp workload's data (m = 2, M = 15) on the one-cell grid: 452
// consecutive values on the caller alone. On its Eps grid the lockstep
// domain makes it 60.
func BenchmarkDecryptRange512(b *testing.B) {
	k := benchKey(b, 512)
	base, err := rand.Int(rand.Reader, k.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = decryptRange(nil, k, base, 452)[451]
	}
}

func BenchmarkYMPPDomain256(b *testing.B) {
	k := testRSAKey(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := transport.Run2(
			func(c transport.Conn) error {
				_, err := AliceCompareBatch(c, k, []int64{100}, 256, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := BobCompareBatch(c, &k.RSAPublicKey, []int64{200}, 256, rand.Reader)
				return err
			},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}
