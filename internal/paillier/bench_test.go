package paillier

import (
	"crypto/rand"
	"io"
	"math/big"
	"testing"
)

// Per-layer microbenchmarks, benchstat-comparable:
//
//	go test ./internal/paillier -run NONE -bench . -benchtime 200x -count 10 -cpu 1
//
// CI runs them with -benchtime 1x so they cannot rot.

var benchSink *big.Int

func benchKey(b *testing.B) *PrivateKey {
	b.Helper()
	k, err := GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// BenchmarkEncryptOwner1024 is what the key owner pays per ciphertext.
func BenchmarkEncryptOwner1024(b *testing.B) {
	k := benchKey(b)
	benchEncrypt(b, k.Encrypt)
}

// BenchmarkEncryptPublic1024 is what a peer holding only the public key
// pays per ciphertext.
func BenchmarkEncryptPublic1024(b *testing.B) {
	k := benchKey(b)
	benchEncrypt(b, k.PublicKey.Encrypt)
}

// BenchmarkUnblinded1024 is g^m with nonce 1: what a ciphertext that never
// leaves the process costs instead of one of the two encryptions above.
func BenchmarkUnblinded1024(b *testing.B) {
	k := benchKey(b)
	benchEncrypt(b, func(_ io.Reader, m *big.Int) (*big.Int, error) { return k.Unblinded(m) })
}

func benchEncrypt(b *testing.B, encrypt func(random io.Reader, m *big.Int) (*big.Int, error)) {
	m := big.NewInt(123456)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := encrypt(rand.Reader, m)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = c
	}
}

func BenchmarkDecrypt1024(b *testing.B) {
	k := benchKey(b)
	c, err := k.Encrypt(rand.Reader, big.NewInt(123456))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := k.Decrypt(c)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = m
	}
}

// BenchmarkSlotFold18x56 is one packed comparison reply at the bulk
// workload's shape: 18 slots of 56 bits, one base per slot, every scalar
// a negated 40-bit mask.
func BenchmarkSlotFold18x56(b *testing.B) {
	k := benchKey(b)
	slots := make([][]SlotTerm, 18)
	for s := range slots {
		r, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, 40))
		if err != nil {
			b.Fatal(err)
		}
		slots[s] = []SlotTerm{{Base: randomCiphertext(b, k), Scalar: r.Neg(r)}}
	}
	init := randomCiphertext(b, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := k.SlotFold(init, 56, slots)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = c
	}
}
