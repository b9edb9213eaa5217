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
// bench ympp workload: 452 consecutive values on the caller alone.
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
				_, err := AliceCompare(c, k, 100, 256, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := BobCompare(c, &k.RSAPublicKey, 200, 256, rand.Reader)
				return err
			},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}
