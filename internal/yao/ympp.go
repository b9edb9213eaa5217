package yao

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"repro/internal/paillier"
	"repro/internal/prime"
	"repro/internal/transport"
)

// The YMPP wire protocol follows Algorithm 1 step by step:
//
//	Bob → Alice: n0 ‖ (k − j + 1 mod N)         where k = Ea(x)
//	Alice → Bob: p ‖ w_1 … w_n0                  w_u = z_u (+1 if u > i) mod p
//	Bob → Alice: result bit (step 7: "Bob tells Alice what the conclusion is")
//
// Communication is O(c2·n0) bits with c2 = |p| = N/2 bits, matching the
// complexity the paper charges per YMPP invocation.

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

// AliceCompare runs Alice's side of Algorithm 1. Alice holds i ∈ [1, n0]
// and the RSA key pair. Returns whether i < j. pool bounds the local
// decryption fan-out (nil: GOMAXPROCS); only Alice does O(n0) local
// work, so Bob's half takes no pool handle.
func AliceCompare(conn transport.Conn, key *RSAKey, i, n0 int64, random io.Reader, pool *paillier.Pool) (bool, error) {
	if err := checkDomain(i, n0); err != nil {
		return false, err
	}
	if random == nil {
		random = rand.Reader
	}

	// Step 2 (receive): Bob's k − j + 1.
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return false, fmt.Errorf("yao: alice recv round 1: %w", err)
	}
	bobN0 := int64(r.Uint())
	base := r.Big()
	if r.Err() != nil {
		return false, fmt.Errorf("yao: alice parse round 1: %w", r.Err())
	}
	if bobN0 != n0 {
		return false, fmt.Errorf("%w: alice=%d bob=%d", ErrDomainMismatch, n0, bobN0)
	}
	if base.Sign() < 0 || base.Cmp(key.N) >= 0 {
		return false, fmt.Errorf("yao: round-1 value outside Z_N")
	}

	// Step 3: y_u = Da(k − j + u) for u = 1..n0.
	ys := decryptRange(pool, key, base, int(n0))

	// Step 4: find a prime p with all z_u = y_u mod p pairwise ≥ 2 apart
	// in the mod-p sense. Each try is a prime.Draw, so p keeps
	// crypto/rand.Prime's distribution.
	p, zs, err := findSeparatingPrime(random, key.sepPrimeBits(), ys)
	if err != nil {
		return false, err
	}

	// Step 5: send z_1..z_i, then z_{i+1}+1 .. z_{n0}+1 (mod p).
	ws := make([]*big.Int, n0)
	for u := int64(1); u <= n0; u++ {
		w := new(big.Int).Set(zs[u-1])
		if u > i {
			w.Add(w, one)
			if w.Cmp(p) >= 0 {
				w.Sub(w, p)
			}
		}
		ws[u-1] = w
	}
	out := transport.NewBuilder().PutBig(p).PutBigs(ws)
	if err := transport.SendMsg(conn, out); err != nil {
		return false, fmt.Errorf("yao: alice send round 2: %w", err)
	}

	// Step 7: Bob tells Alice the conclusion.
	res, err := transport.RecvMsg(conn)
	if err != nil {
		return false, fmt.Errorf("yao: alice recv result: %w", err)
	}
	iLessJ := res.Bool()
	if res.Err() != nil {
		return false, res.Err()
	}
	return iLessJ, nil
}

// BobCompare runs Bob's side of Algorithm 1. Bob holds j ∈ [1, n0] and
// Alice's public key. Returns whether i < j.
func BobCompare(conn transport.Conn, pub *RSAPublicKey, j, n0 int64, random io.Reader) (bool, error) {
	if err := checkDomain(j, n0); err != nil {
		return false, err
	}
	if random == nil {
		random = rand.Reader
	}

	// Step 1: random x, k = Ea(x).
	x, err := rand.Int(random, pub.N)
	if err != nil {
		return false, fmt.Errorf("yao: sampling x: %w", err)
	}
	k := pub.Encrypt(x)

	// Step 2: send k − j + 1 mod N.
	base := new(big.Int).Sub(k, big.NewInt(j-1))
	base.Mod(base, pub.N)
	msg := transport.NewBuilder().PutUint(uint64(n0)).PutBig(base)
	if err := transport.SendMsg(conn, msg); err != nil {
		return false, fmt.Errorf("yao: bob send round 1: %w", err)
	}

	// Step 6: inspect the j-th number.
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return false, fmt.Errorf("yao: bob recv round 2: %w", err)
	}
	p := r.Big()
	ws := r.Bigs()
	if r.Err() != nil {
		return false, fmt.Errorf("yao: bob parse round 2: %w", r.Err())
	}
	if err := checkRound2(pub, p, ws, n0); err != nil {
		return false, err
	}
	xModP := new(big.Int).Mod(x, p)
	// w_j == x mod p ⇒ i ≥ j, otherwise i < j.
	iLessJ := ws[j-1].Cmp(xModP) != 0

	// Step 7: tell Alice the conclusion.
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBool(iLessJ)); err != nil {
		return false, fmt.Errorf("yao: bob send result: %w", err)
	}
	return iLessJ, nil
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
// per task on the shared crypto pool (nil pool: GOMAXPROCS fan-out).
// base + t is not reduced first: Decrypt takes any y ≥ 0.
func decryptRange(pool *paillier.Pool, key *RSAKey, base *big.Int, count int) []*big.Int {
	ys := make([]*big.Int, count)
	_ = paillier.ParallelFor(pool, count, func(t int) error {
		ys[t] = key.Decrypt(new(big.Int).Add(base, big.NewInt(int64(t))))
		return nil
	})
	return ys
}

// findSeparatingPrime implements step 4: draw random primes of the given
// bit length until all y_u mod p differ pairwise by at least 2 in the
// mod-p (circular) sense. Each prime comes from prime.Draw, which makes and
// accepts exactly the candidates crypto/rand.Prime does, so p has
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

// ---- Convenience predicates over non-negative values ----
//
// The DBSCAN protocols compare non-negative quantities a (held by Alice)
// and b (held by Bob), both bounded by a publicly known `bound`. The
// mappings below embed those predicates into Algorithm 1's strict i < j
// over [1, n0]. Each call still costs O(n0) = O(bound) work and bits.

// AliceLessEq decides a ≤ b for a ∈ [0, bound]; pairs with BobLessEq.
func AliceLessEq(conn transport.Conn, key *RSAKey, a, bound int64, random io.Reader, pool *paillier.Pool) (bool, error) {
	if a < 0 || a > bound {
		return false, fmt.Errorf("yao: value %d outside [0,%d]", a, bound)
	}
	// a ≤ b  ⟺  a+1 < b+2  over n0 = bound+2.
	return AliceCompare(conn, key, a+1, bound+2, random, pool)
}

// BobLessEq is the Bob half of AliceLessEq; b ∈ [0, bound].
func BobLessEq(conn transport.Conn, pub *RSAPublicKey, b, bound int64, random io.Reader) (bool, error) {
	if b < 0 || b > bound {
		return false, fmt.Errorf("yao: value %d outside [0,%d]", b, bound)
	}
	return BobCompare(conn, pub, b+2, bound+2, random)
}

// AliceLess decides a < b strictly; pairs with BobLess.
func AliceLess(conn transport.Conn, key *RSAKey, a, bound int64, random io.Reader, pool *paillier.Pool) (bool, error) {
	if a < 0 || a > bound {
		return false, fmt.Errorf("yao: value %d outside [0,%d]", a, bound)
	}
	// a < b ⟺ a+1 < b+1 over n0 = bound+1.
	return AliceCompare(conn, key, a+1, bound+1, random, pool)
}

// BobLess is the Bob half of AliceLess.
func BobLess(conn transport.Conn, pub *RSAPublicKey, b, bound int64, random io.Reader) (bool, error) {
	if b < 0 || b > bound {
		return false, fmt.Errorf("yao: value %d outside [0,%d]", b, bound)
	}
	return BobCompare(conn, pub, b+1, bound+1, random)
}
