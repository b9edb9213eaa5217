package yao

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"repro/internal/paillier"
	"repro/internal/prime"
)

// A YMPP comparison is always a batch (batch.go): count independent
// Algorithm 1 instances over one shared domain n0 in three frames, so a
// single comparison is a batch of one. Per instance the frames follow
// Algorithm 1 step by step:
//
//	Bob → Alice: k − j + 1 mod N                 where k = Ea(x)
//	Alice → Bob: p ‖ w_1 … w_n0                  w_u = z_u (+1 if u > i) mod p
//	Bob → Alice: result bit (step 7: "Bob tells Alice what the conclusion is")
//
// Communication is O(c2·n0) bits per instance with c2 = |p| = N/2 bits,
// matching the complexity the paper charges per YMPP invocation.

// MaxDomain caps n0 to keep a corrupted header from forcing absurd
// allocations. The paper's analysis already makes n0 the dominant cost, so
// legitimate domains stay far below this.
const MaxDomain = 1 << 22

// maxPrimeAttempts bounds the retry loop of Algorithm 1 step 4.
const maxPrimeAttempts = 256

// ErrDomainMismatch reports that the two parties disagreed on n0.
var ErrDomainMismatch = errors.New("yao: parties disagree on comparison domain n0")

// ErrResidues reports a round-2 message Alice cannot have built by
// Algorithm 1: a modulus p that is not half the length of N, or a w_u
// outside [0, p).
var ErrResidues = errors.New("yao: round-2 prime or residues out of range")

func checkDomain(v, n0 int64) error {
	if n0 < 1 || n0 > MaxDomain {
		return fmt.Errorf("yao: domain n0=%d out of range [1,%d]", n0, int64(MaxDomain))
	}
	if v < 1 || v > n0 {
		return fmt.Errorf("yao: input %d outside [1,%d]", v, n0)
	}
	return nil
}

// sepPrimeBits is the length of step 4's prime p, |N|/2 bits: what Alice
// draws and the only length Bob accepts.
func (pk *RSAPublicKey) sepPrimeBits() int { return pk.N.BitLen() / 2 }

// checkRound2 holds Alice's step-5 message to what step 4 can produce
// before Bob computes with it: n0 numbers, a p of exactly sepPrimeBits
// bits and every w_u reduced mod p.
// That p is prime is not checked: it is Alice's own secret-independent
// choice, and whatever she sends, all she learns is one bit about
// w_j ≟ x mod p.
func checkRound2(pub *RSAPublicKey, p *big.Int, ws []*big.Int, n0 int64) error {
	if int64(len(ws)) != n0 {
		return fmt.Errorf("%w: got %d numbers, want %d", ErrDomainMismatch, len(ws), n0)
	}
	if p.Sign() <= 0 || p.BitLen() != pub.sepPrimeBits() {
		return fmt.Errorf("%w: p of %d bits under a %d-bit key", ErrResidues, p.BitLen(), pub.N.BitLen())
	}
	for u, w := range ws {
		if w.Sign() < 0 || w.Cmp(p) >= 0 {
			return fmt.Errorf("%w: w_%d outside [0, p)", ErrResidues, u+1)
		}
	}
	return nil
}

// decryptRange computes Da(base + t mod N) for t = 0..count−1, one value
// per task on the shared crypto pool (nil pool: GOMAXPROCS fan-out). base
// is reduced mod p and mod q once; task t adds t to each residue with one
// conditional subtraction, which needs t < p and t < q: count ≤ MaxDomain
// is far below the 128-bit primes of the smallest key.
func decryptRange(pool *paillier.Pool, key *RSAKey, base *big.Int, count int) []*big.Int {
	ys := make([]*big.Int, count)
	bp, bq := new(big.Int).Mod(base, key.p), new(big.Int).Mod(base, key.q)
	if f := key.fast; f != nil {
		lp, lq := load4(bp), load4(bq)
		_ = paillier.ParallelFor(pool, count, func(t int) error {
			var xp, xq limbs4
			step := limbs4{uint64(t)}
			f.p.add(&xp, &lp, &step)
			f.q.add(&xq, &lq, &step)
			ys[t] = f.decryptResidues(&xp, &xq)
			return nil
		})
		return ys
	}
	_ = paillier.ParallelFor(pool, count, func(t int) error {
		ys[t] = key.decryptResidues(addSmall(bp, t, key.p), addSmall(bq, t, key.q))
		return nil
	})
	return ys
}

// addSmall returns x + t mod m for a reduced x and 0 ≤ t < m.
func addSmall(x *big.Int, t int, m *big.Int) *big.Int {
	z := new(big.Int).Add(x, big.NewInt(int64(t)))
	if z.Cmp(m) >= 0 {
		z.Sub(z, m)
	}
	return z
}

// findSeparatingPrime implements step 4: draw random primes of the given
// bit length until all y_u mod p differ pairwise by at least 2 in the
// mod-p (circular) sense. Each prime comes from prime.Draw, which makes
// crypto/rand.Prime's candidates and accepts on Baillie–PSW, so p has
// crypto/rand.Prime's distribution.
func findSeparatingPrime(random io.Reader, bits int, ys []*big.Int) (*big.Int, []*big.Int, error) {
	zs := make([]*big.Int, len(ys))
	sorted := make([]*big.Int, len(ys))
	for attempt := 0; attempt < maxPrimeAttempts; attempt++ {
		p, err := prime.Draw(random, bits)
		if err != nil {
			return nil, nil, fmt.Errorf("yao: generating prime: %w", err)
		}
		ok := true
		for i, y := range ys {
			zs[i] = new(big.Int).Mod(y, p)
		}
		copy(sorted, zs)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Cmp(sorted[b]) < 0 })
		gap := new(big.Int)
		for i := 1; i < len(sorted); i++ {
			gap.Sub(sorted[i], sorted[i-1])
			if gap.Cmp(two) < 0 {
				ok = false
				break
			}
		}
		if ok && len(sorted) > 1 {
			// circular wrap gap: (min + p) − max ≥ 2
			gap.Add(sorted[0], p)
			gap.Sub(gap, sorted[len(sorted)-1])
			if gap.Cmp(two) < 0 {
				ok = false
			}
		}
		if ok {
			return p, zs, nil
		}
	}
	return nil, nil, fmt.Errorf("yao: no separating prime found after %d attempts (domain too dense for %d-bit primes)", maxPrimeAttempts, bits)
}

var two = big.NewInt(2)
