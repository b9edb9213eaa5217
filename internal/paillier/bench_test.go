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

func benchKey(b *testing.B) *PrivateKey { return benchKeyBits(b, 1024) }

func benchKeyBits(b *testing.B, bits int) *PrivateKey {
	b.Helper()
	k, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

// BenchmarkGenerateKey1024 is one 1024-bit key: two 512-bit prime draws
// and the key's inverses, what every session pays per party before its
// handshake.
func BenchmarkGenerateKey1024(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		k, err := GenerateKey(rand.Reader, 1024)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = k.N
	}
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

// BenchmarkSlotFoldMasked18x55 is one packed comparison reply at the bulk
// workload's shape: 18 slots of 55 bits, each instance's uplink base
// negated and pre-shifted by its sender, so the fold raises it by a
// positive 40-bit mask at relative slot 0 or 1 and inverts nothing.
func BenchmarkSlotFoldMasked18x55(b *testing.B) {
	benchMaskedFold(b, benchKey(b), 18)
}

// BenchmarkSlotFoldMasked9x55Key512 is the same reply at the wan
// workload's shape: 9 slots of 55 bits under a 512-bit key.
func BenchmarkSlotFoldMasked9x55Key512(b *testing.B) {
	benchMaskedFold(b, benchKeyBits(b, 512), 9)
}

// benchMaskedFold folds n instances' uplink bases under positive 40-bit
// masks, alternately at relative slot 0 and 1.
func benchMaskedFold(b *testing.B, k *PrivateKey, n int) {
	slots := make([][]SlotTerm, 2)
	for t := 0; t < n; t++ {
		slots[t%2] = append(slots[t%2], SlotTerm{Base: randomCiphertext(b, k), Scalar: randomScalar(b, 40)})
	}
	benchSlotFold(b, k, 55, slots)
}

// BenchmarkSlotFoldDerived6x60Key512 is one derived comparison reply at
// the serve workload's shape: 6 slots of the widened 60-bit uplink packer
// under a 512-bit key, one base a slot — built negated by the folder, so
// its mask is positive — and no uplink shift, so the chain runs the full
// 5·60 + 40 bits.
func BenchmarkSlotFoldDerived6x60Key512(b *testing.B) {
	k := benchKeyBits(b, 512)
	slots := make([][]SlotTerm, 6)
	for s := range slots {
		slots[s] = []SlotTerm{{Base: randomCiphertext(b, k), Scalar: randomScalar(b, 40)}}
	}
	benchSlotFold(b, k, 60, slots)
}

// BenchmarkSlotFoldRowDot17x2 is one row-dot reply at the bulk workload's
// shape: 17 groups of 2 column ciphertexts, each pre-shifted by the
// receiver to its group's slots, so every term sits at slot 0 under its
// 6-bit coordinate scalar and the chain is 6 squarings, whatever the
// 15-bit slots the groups fill.
func BenchmarkSlotFoldRowDot17x2(b *testing.B) {
	k := benchKey(b)
	terms := make([]SlotTerm, 17*2)
	for i := range terms {
		terms[i] = SlotTerm{Base: randomCiphertext(b, k), Scalar: randomScalar(b, 6)}
	}
	benchSlotFold(b, k, 15, [][]SlotTerm{terms})
}

func randomScalar(b *testing.B, bits uint) *big.Int {
	r, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, bits))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func benchSlotFold(b *testing.B, k *PrivateKey, width uint, slots [][]SlotTerm) {
	init := randomCiphertext(b, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := k.SlotFold(init, width, slots)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = c
	}
}
