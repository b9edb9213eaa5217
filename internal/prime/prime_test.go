package prime

import (
	"bytes"
	"crypto/fips140"
	"errors"
	"io"
	"math"
	"math/big"
	mrand "math/rand"
	"testing"
)

// referencePrime is crypto/rand.Prime's loop verbatim, less its
// MaybeReadByte (which skips a byte of the reader at random) and its FIPS
// guard: the draw Draw must reproduce byte for byte.
func referencePrime(rand io.Reader, bits int) (*big.Int, error) {
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}

	bytes := make([]byte, (bits+7)/8)
	p := new(big.Int)

	for {
		if _, err := io.ReadFull(rand, bytes); err != nil {
			return nil, err
		}

		bytes[0] &= uint8(int(1<<b) - 1)
		if b >= 2 {
			bytes[0] |= 3 << (b - 2)
		} else {
			bytes[0] |= 1
			if len(bytes) > 1 {
				bytes[1] |= 0x80
			}
		}
		bytes[len(bytes)-1] |= 1

		p.SetBytes(bytes)
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// TestDrawMatchesReference feeds Draw and the reference loop the same
// seeded byte stream at lengths from MinBits to 1024, multiples of 8 and
// not: both must return the same prime and leave the stream at the same
// byte.
func TestDrawMatchesReference(t *testing.T) {
	lengths := []int{16, 17, 19, 23, 24, 25, 31, 32, 33, 47, 63, 64, 65, 100, 127, 128, 129, 200, 255, 256, 257, 383, 511, 512, 513, 777, 1024}
	for _, bits := range lengths {
		seeds := 12
		if bits > 256 {
			seeds = 3
		}
		if testing.Short() || bits > 512 {
			seeds = 1
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			src := int64(bits)<<16 | seed
			a, b := mrand.New(mrand.NewSource(src)), mrand.New(mrand.NewSource(src))
			got, err := Draw(a, bits)
			if err != nil {
				t.Fatalf("Draw(%d bits, seed %d): %v", bits, seed, err)
			}
			want, err := referencePrime(b, bits)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%d bits, seed %d: Draw = %v, reference = %v", bits, seed, got, want)
			}
			if got.BitLen() != bits || got.Bit(bits-2) != 1 {
				t.Fatalf("%d bits, seed %d: %v is %d bits long or lacks its second bit", bits, seed, got, got.BitLen())
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("%d bits, seed %d: Draw and the reference read different lengths of the stream", bits, seed)
			}
		}
	}
}

// TestTable checks the divisor table: every tabled number is prime and
// below bound, every odd prime below bound appears exactly once and in
// increasing order, and every product is the product of its group and
// fits a uint. bound stays below the smallest candidate Draw makes.
func TestTable(t *testing.T) {
	if bound >= 3<<(MinBits-2) {
		t.Fatalf("bound %d reaches the smallest %d-bit candidate", bound, MinBits)
	}
	seen := map[uint]int{}
	last := uint(0)
	for i, g := range groups {
		if len(g.primes) == 0 {
			t.Fatalf("group %d is empty", i)
		}
		prod := big.NewInt(1)
		for _, p := range g.primes {
			if p <= last || p >= bound || !new(big.Int).SetUint64(uint64(p)).ProbablyPrime(0) {
				t.Fatalf("group %d: %d is out of order, at or above %d, or not prime", i, p, bound)
			}
			last = p
			seen[p]++
			prod.Mul(prod, new(big.Int).SetUint64(uint64(p)))
		}
		if !prod.IsUint64() || prod.Uint64() > math.MaxUint || uint(prod.Uint64()) != g.product {
			t.Fatalf("group %d: product %d, tabled %d, overflows or differs", i, prod, g.product)
		}
	}
	for n := uint(3); n < bound; n += 2 {
		if isPrime := big.NewInt(int64(n)).ProbablyPrime(0); isPrime != (seen[n] == 1) {
			t.Fatalf("%d: prime %v, tabled %d times", n, isPrime, seen[n])
		}
	}
}

// TestHasSmallFactor compares the grouped remainders with one division by
// every odd prime below bound, on random odd numbers of 16 to 1039 bits
// and on products of a tabled prime with a large cofactor.
func TestHasSmallFactor(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	var small []int64
	for _, g := range groups {
		for _, p := range g.primes {
			small = append(small, int64(p))
		}
	}
	naive := func(n *big.Int) bool {
		var r big.Int
		for _, p := range small {
			if r.Mod(n, big.NewInt(p)).Sign() == 0 {
				return true
			}
		}
		return false
	}
	for i := 0; i < 2000; i++ {
		n := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(MinBits+rng.Intn(1024))))
		n.SetBit(n, 0, 1)
		if i%2 == 1 {
			n.Mul(n, big.NewInt(small[rng.Intn(len(small))]))
		}
		if n.Cmp(big.NewInt(bound)) <= 0 {
			continue
		}
		if got, want := hasSmallFactor(n), naive(n); got != want {
			t.Fatalf("hasSmallFactor(%v) = %v, want %v", n, got, want)
		}
	}
}

// spsp2 are the odd composites below 100 000 that are strong probable
// primes to base 2 (OEIS A001262).
var spsp2 = map[int64]bool{2047: true, 3277: true, 4033: true, 4681: true, 8321: true, 15841: true, 29341: true, 42799: true, 49141: true, 52633: true, 65281: true, 74665: true, 80581: true, 85489: true, 88357: true, 90751: true}

// TestStrongBase2 checks strongBase2 on every odd number from 5 to 100 000:
// it accepts exactly the primes and the base-2 strong pseudoprimes.
func TestStrongBase2(t *testing.T) {
	for n := int64(5); n < 100000; n += 2 {
		want := big.NewInt(n).ProbablyPrime(0) || spsp2[n]
		if got := strongBase2(big.NewInt(n)); got != want {
			t.Fatalf("strongBase2(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestDrawRefusesStrongPseudoprimes feeds Draw, at each pseudoprime's own
// length, a composite that passes both pre-filters, then a prime: only
// Draw's Baillie–PSW test can refuse the composite, and Draw must skip it
// and return the prime. 13 747 361 is a base-2 strong pseudoprime;
// 3 825 123 056 546 413 051 is a strong pseudoprime to all nine prime bases
// 2…23, so no Miller–Rabin round on a small fixed base refuses it. Each has
// its top two bits set and no factor below bound.
func TestDrawRefusesStrongPseudoprimes(t *testing.T) {
	cases := []struct {
		bits    int
		factors []int64
	}{
		{24, []int64{2141, 6421}},
		{62, []int64{149491, 747451, 34233211}},
	}
	for _, c := range cases {
		n := big.NewInt(1)
		for _, f := range c.factors {
			if f <= bound {
				t.Fatalf("bound %d reaches the factor %d: pick a pseudoprime whose factors exceed it", bound, f)
			}
			n.Mul(n, big.NewInt(f))
		}
		if n.BitLen() != c.bits || n.Bit(c.bits-2) != 1 || n.Bit(0) != 1 {
			t.Fatalf("%v is not an odd %d-bit candidate with its top two bits set", n, c.bits)
		}
		if hasSmallFactor(n) || !strongBase2(n) {
			t.Fatalf("%v does not pass both pre-filters", n)
		}
		p := new(big.Int).Lsh(big.NewInt(3), uint(c.bits-2))
		p.SetBit(p, 0, 1)
		for !p.ProbablyPrime(20) {
			p.Add(p, big.NewInt(2))
		}
		stream := bytes.NewReader(append(n.Bytes(), p.Bytes()...))
		got, err := Draw(stream, c.bits)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(p) != 0 {
			t.Fatalf("%d bits: Draw = %v, want the prime %v after the pseudoprime %v", c.bits, got, p, n)
		}
		if stream.Len() != 0 {
			t.Fatalf("%d bits: Draw left %d bytes of the stream unread", c.bits, stream.Len())
		}
	}
}

// TestAcceptanceMatchesProbablyPrime20 draws seeded odd candidates with
// their top two bits set at the protocol lengths and below, keeps those
// that pass trial division and strongBase2, and checks that Draw's final
// test, ProbablyPrime(0), decides each one as ProbablyPrime(20) does.
func TestAcceptanceMatchesProbablyPrime20(t *testing.T) {
	counts := []struct{ bits, n int }{{64, 4000}, {128, 2000}, {256, 400}, {512, 80}}
	for _, c := range counts {
		if testing.Short() {
			c.n /= 10
		}
		rng := mrand.New(mrand.NewSource(int64(c.bits)))
		limit := new(big.Int).Lsh(big.NewInt(1), uint(c.bits))
		for kept := 0; kept < c.n; {
			p := new(big.Int).Rand(rng, limit)
			p.SetBit(p, c.bits-1, 1).SetBit(p, c.bits-2, 1).SetBit(p, 0, 1)
			if hasSmallFactor(p) || !strongBase2(p) {
				continue
			}
			kept++
			if got, want := p.ProbablyPrime(0), p.ProbablyPrime(20); got != want {
				t.Fatalf("%d bits: ProbablyPrime(0) = %v, ProbablyPrime(20) = %v on %v", c.bits, got, want, p)
			}
		}
	}
}

func TestDrawErrors(t *testing.T) {
	if _, err := Draw(bytes.NewReader(make([]byte, 5)), 64); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short reader: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := Draw(bytes.NewReader(nil), 64); !errors.Is(err, io.EOF) {
		t.Errorf("empty reader: err = %v, want io.EOF", err)
	}
	for _, bits := range []int{-1, 0, 2, MinBits - 1} {
		if p, err := Draw(nil, bits); err == nil {
			t.Errorf("Draw(%d bits) = %v, want an error", bits, p)
		}
	}
	p, err := Draw(nil, 128)
	if err != nil || p.BitLen() != 128 || !p.ProbablyPrime(20) {
		t.Errorf("Draw(nil reader, 128) = %v, %v", p, err)
	}
}

// TestDrawRefusesUnderFIPS runs under GODEBUG=fips140=on:
//
//	GODEBUG=fips140=on go test ./internal/prime -run FIPS
func TestDrawRefusesUnderFIPS(t *testing.T) {
	if !fips140.Enabled() {
		t.Skip("FIPS 140 mode is off; run with GODEBUG=fips140=on")
	}
	if p, err := Draw(nil, 128); !errors.Is(err, errFIPS) {
		t.Fatalf("Draw under FIPS 140 mode = %v, %v; want errFIPS", p, err)
	}
}
