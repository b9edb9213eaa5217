// Package prime is the one source of random primes: both Paillier
// primes of every key (§3.7), both primes of YMPP's RSA key and the prime
// p of Algorithm 1 step 4 come from Draw.
//
// Draw makes a candidate exactly as crypto/rand.Prime does — ⌈bits/8⌉
// fresh bytes, masked to bits, top two bits and bit 0 set; one read per
// candidate and never an upward search from a random start, which would
// favour primes that follow long gaps. A composite dies cheaply: every odd
// prime below bound is tried as a divisor, one word remainder per
// machine-word product of them, then one base-2 strong probable-prime test
// runs. Neither rejects a prime (every candidate exceeds bound, and a prime
// is a strong probable prime to every base). A survivor is accepted on
// Baillie–PSW, big.Int.ProbablyPrime(0): no Baillie–PSW pseudoprime is
// known, and none exists below 2⁶⁴. crypto/rand.Prime's test adds 20
// random-base Miller–Rabin rounds, a guard against crafted numbers. These
// are random: Go's own FIPS 186-5 Appendix B.3 RSA keygen (isPrime in
// crypto/internal/fips140/rsa) accepts a random candidate of 476 bits or
// more after 5 such rounds and no Lucas test. So, fed the same bytes, Draw
// returns crypto/rand.Prime's prime unless it draws a Baillie–PSW
// pseudoprime; the other difference is crypto/rand.Prime's MaybeReadByte,
// which randomly skips a byte of the reader and is not a check.
//
// Draw refuses to run whenever FIPS 140 mode is enabled: crypto/rand.Prime
// refuses in FIPS 140-only mode, so Draw is never looser, and stricter only
// under fips140=on.
package prime

import (
	"crypto/fips140"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
)

// bound is B: Draw divides every candidate by every odd prime below it
// before any exponentiation. Past a couple of thousand, a further
// divisor removes fewer composites than it costs in word divisions.
const bound = 2000

// MinBits is the shortest prime Draw makes. Its smallest candidate,
// 3·2^(MinBits−2), exceeds bound, so a tabled divisor never divides a
// candidate that is itself prime.
const MinBits = 16

// errFIPS reports a draw refused because FIPS 140 mode is enabled.
var errFIPS = errors.New("prime: not allowed in FIPS 140 mode")

// group is a run of consecutive odd primes below bound whose product fits
// a uint, so one word remainder of a candidate serves all of them.
type group struct {
	product uint
	primes  []uint
}

// groups is every odd prime below bound, in increasing order, packed into
// uint-sized products; built once at start-up and never written again.
var groups = tabulate(bound)

// tabulate sieves the odd primes below b and packs them greedily into
// products that fit a uint.
func tabulate(b int) []group {
	composite := make([]bool, b)
	var out []group
	for n := 3; n < b; n += 2 {
		if composite[n] {
			continue
		}
		for m := n * n; m < b; m += 2 * n {
			composite[m] = true
		}
		p := uint(n)
		if len(out) == 0 || out[len(out)-1].product > math.MaxUint/p {
			out = append(out, group{product: 1})
		}
		g := &out[len(out)-1]
		g.product *= p
		g.primes = append(g.primes, p)
	}
	return out
}

// Draw returns a random prime of exactly bits bits with its top two bits
// set, reading candidates from random (nil: crypto/rand.Reader). It
// returns an error if bits < MinBits, if random fails, or if FIPS 140
// mode is enabled.
func Draw(random io.Reader, bits int) (*big.Int, error) {
	if fips140.Enabled() {
		return nil, errFIPS
	}
	if bits < MinBits {
		return nil, fmt.Errorf("prime: size %d below minimum %d", bits, MinBits)
	}
	if random == nil {
		random = rand.Reader
	}
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	bytes := make([]byte, (bits+7)/8)
	p := new(big.Int)
	for {
		if _, err := io.ReadFull(random, bytes); err != nil {
			return nil, err
		}
		// crypto/rand.Prime's candidate: at most bits long, top two bits
		// set (so a product of two is never a bit short), odd.
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
		if !hasSmallFactor(p) && strongBase2(p) && p.ProbablyPrime(0) {
			return p, nil
		}
	}
}

// hasSmallFactor reports whether an odd prime below bound divides n, for
// an n above bound. The products are taken smallest primes first, so most
// composites stop at the first word remainder.
func hasSmallFactor(n *big.Int) bool {
	words := n.Bits()
	for _, g := range groups {
		var r uint
		for i := len(words) - 1; i >= 0; i-- {
			_, r = bits.Div(r, uint(words[i]), g.product)
		}
		for _, p := range g.primes {
			if r%p == 0 {
				return true
			}
		}
	}
	return false
}

// strongBase2 reports whether the odd n > 3 is a strong probable prime to
// base 2: with n − 1 = d·2^s and d odd, 2^d ≡ 1 or 2^(d·2^r) ≡ −1 mod n
// for some r < s. Every prime is; most composites that survive trial
// division are not.
func strongBase2(n *big.Int) bool {
	nm1 := new(big.Int).SetBit(n, 0, 0)
	s := nm1.TrailingZeroBits()
	d := new(big.Int).Rsh(nm1, s)
	x := new(big.Int).Exp(big.NewInt(2), d, n)
	if x.BitLen() == 1 || x.Cmp(nm1) == 0 {
		return true
	}
	for r := uint(1); r < s; r++ {
		x.Mul(x, x)
		x.Mod(x, n)
		if x.Cmp(nm1) == 0 {
			return true
		}
		if x.BitLen() == 1 {
			return false
		}
	}
	return false
}
