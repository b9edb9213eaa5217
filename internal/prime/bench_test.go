package prime

import (
	"crypto/rand"
	"io"
	"math/big"
	"testing"
)

// Draw against crypto/rand.Prime at the two lengths the protocols use:
// 256 bits (a prime of a 512-bit key, and step 4's p under a 512-bit RSA
// key) and 512 bits (a prime of a 1024-bit key).
//
//	go test ./internal/prime -run NONE -bench . -benchtime 600x -cpu 1
//
// CI runs them with -benchtime 1x so they cannot rot.

var benchSink *big.Int

func BenchmarkDraw256(b *testing.B) { benchDraw(b, Draw, 256) }
func BenchmarkDraw512(b *testing.B) { benchDraw(b, Draw, 512) }

func BenchmarkCryptoRandPrime256(b *testing.B) { benchDraw(b, rand.Prime, 256) }
func BenchmarkCryptoRandPrime512(b *testing.B) { benchDraw(b, rand.Prime, 512) }

func benchDraw(b *testing.B, draw func(random io.Reader, bits int) (*big.Int, error), bits int) {
	b.ReportAllocs()
	for b.Loop() {
		p, err := draw(rand.Reader, bits)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}
