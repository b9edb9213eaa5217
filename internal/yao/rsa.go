// Package yao implements Yao's Millionaires' Problem Protocol (YMPP)
// exactly as specified in Algorithm 1 of the reproduced paper — Yao's
// original 1982 protocol. Alice holds i and Bob holds j, both in [1, n0];
// the parties learn whether i < j and nothing else.
//
// The protocol requires a trapdoor permutation that Bob can evaluate under
// Alice's public key (the paper's Ea/Da); this package provides textbook
// (unpadded) RSA for that role, which is the classical instantiation. Raw
// RSA is malleable and must never be used for general encryption; inside
// YMPP it is used only as the one-way trapdoor function the protocol
// requires.
//
// # Da and the four-limb kernel
//
// Alice evaluates Da n0 times per comparison (step 3), so an YMPP session
// is RSA CRT decryptions and little else. Every key this repository makes
// by default has primes of at most 256 bits — four machine words, where
// math/big's per-call set-up, normalisation and scratch allocation cost as
// much as its arithmetic. mont.go therefore holds one unexported kernel:
// Montgomery multiplication on [4]uint64 stack arrays, unrolled over
// math/bits, under a fixed four-bit-window exponentiation. RSAKey.Decrypt
// runs both CRT halves on it whenever p and q each fit four limbs — a
// property of the key, fixed at generation; there is no switch — and on
// big.Int.Exp for wider keys, with bit-for-bit the same results
// (FuzzMont4Exp, TestDecryptMatchesReference). The kernel has one width on
// purpose: from eight limbs up math/big's assembly wins, so it is not
// generalised and not offered to Paillier.
//
// Timing: neither path is constant-time, and the kernel adds no signal
// math/big lacks. Its sequence of squarings and multiplications depends
// only on the exponent's bit length, as math/big's windowed Montgomery
// ladder's does — a zero window still multiplies, by the Montgomery 1 —
// while the table index, the final conditional subtraction of each
// reduction and the CPU's multiplier remain data-dependent on both paths.
// YMPP runs between the two data holders over a link only they see; a
// deployment that exposes decryption timing to anyone else needs a
// constant-time RSA, which neither math/big nor this kernel is.
package yao

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var one = big.NewInt(1)

// RSAKey is a textbook RSA key pair with CRT acceleration for Da.
type RSAKey struct {
	RSAPublicKey
	D *big.Int // private exponent

	p, q, dp, dq, qInv *big.Int // CRT decryption values

	// fast is the four-limb form of the CRT values; nil when p or q is
	// wider than 256 bits, which leaves Decrypt on math/big.
	fast *crt4
}

// crt4 is what Decrypt needs on the four-limb kernel (mont.go): one
// Montgomery context per prime, the CRT exponents and q⁻¹ mod p as limbs.
type crt4 struct {
	p, q         *mont4
	dp, dq, qInv limbs4
}

// newCRT4 returns the four-limb form of k's CRT values, or nil unless both
// primes fit four limbs.
func newCRT4(k *RSAKey) *crt4 {
	mp, mq := newMont4(k.p), newMont4(k.q)
	if mp == nil || mq == nil {
		return nil
	}
	return &crt4{p: mp, q: mq, dp: load4(k.dp), dq: load4(k.dq), qInv: load4(k.qInv)}
}

// decrypt returns y^D mod N from the residues xp = y mod p and xq = y mod
// q.
//
// The CRT of Decrypt with the steps arranged so that nothing leaves limbs:
// m1 stays in Montgomery form, m2 is carried into p's Montgomery form (it
// is below q, not below p, which mont4.mul allows), and the multiplication
// by the plain q⁻¹ takes the R back out — h = (m1 − m2)·q⁻¹ mod p.
func (f *crt4) decrypt(xp, xq *limbs4) *big.Int {
	var m1, m2, h limbs4
	f.p.expMont(&m1, xp, &f.dp)
	f.q.exp(&m2, xq, &f.dq)
	f.p.mul(&h, &m2, &f.p.rr)
	f.p.sub(&h, &m1, &h)
	f.p.mul(&h, &h, &f.qInv)
	var m [8]uint64
	mul8(&m, &h, &f.q.m)
	add8(&m, &m2)
	return new(big.Int).SetBits(words(m[:]))
}

// RSAPublicKey is the Ea side of the trapdoor: N and e.
type RSAPublicKey struct {
	N *big.Int
	E *big.Int
}

// MinRSABits is the smallest accepted modulus; test keys use 256 bits.
// MaxRSABits is the largest modulus UnmarshalRSAPublicKey accepts from a
// peer.
const (
	MinRSABits = 256
	MaxRSABits = 8192
)

// ErrPublicKey reports a peer's RSA public key that cannot be one.
var ErrPublicKey = errors.New("yao: invalid RSA public key")

// GenerateRSAKey creates a textbook RSA key pair for YMPP.
func GenerateRSAKey(random io.Reader, bits int) (*RSAKey, error) {
	if bits < MinRSABits {
		return nil, fmt.Errorf("yao: RSA key size %d below minimum %d", bits, MinRSABits)
	}
	if random == nil {
		random = rand.Reader
	}
	e := big.NewInt(65537)
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("yao: generating p: %w", err)
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("yao: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).GCD(nil, nil, e, phi).Cmp(one) != 0 {
			continue
		}
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue
		}
		qInv := new(big.Int).ModInverse(q, p)
		if qInv == nil {
			continue
		}
		k := &RSAKey{
			RSAPublicKey: RSAPublicKey{N: new(big.Int).Mul(p, q), E: e},
			D:            d,
			p:            p,
			q:            q,
			dp:           new(big.Int).Mod(d, pm1),
			dq:           new(big.Int).Mod(d, qm1),
			qInv:         qInv,
		}
		k.fast = newCRT4(k)
		return k, nil
	}
}

// Encrypt evaluates Ea(x) = x^e mod N.
func (pk *RSAPublicKey) Encrypt(x *big.Int) *big.Int {
	return new(big.Int).Exp(x, pk.E, pk.N)
}

// Decrypt evaluates Da(y) = y^D mod N by the CRT, for every y ≥ 0: y need
// not be below N, and 0, 1 and the multiples of p or q are ordinary inputs
// (y is reduced mod p and mod q before anything is raised). The two
// exponentiations run on the four-limb kernel when both primes fit it —
// every key up to 512 bits — and on math/big otherwise, with identical
// results.
func (k *RSAKey) Decrypt(y *big.Int) *big.Int {
	if k.fast != nil {
		var r big.Int
		xp := load4(r.Mod(y, k.p))
		xq := load4(r.Mod(y, k.q))
		return k.fast.decrypt(&xp, &xq)
	}
	// m1 = y^dp mod p, m2 = y^dq mod q, h = qInv·(m1−m2) mod p,
	// m = m2 + h·q < N.
	m1 := new(big.Int).Exp(y, k.dp, k.p)
	m2 := new(big.Int).Exp(y, k.dq, k.q)
	h := m1.Sub(m1, m2)
	h.Mul(h, k.qInv)
	h.Mod(h, k.p)
	m := h.Mul(h, k.q)
	return m.Add(m, m2)
}

// Bits returns the modulus size in bits.
func (pk *RSAPublicKey) Bits() int { return pk.N.BitLen() }

// MarshalRSAPublicKey serializes (N, e) for the wire.
func MarshalRSAPublicKey(pk *RSAPublicKey) ([]byte, []byte) {
	return pk.N.Bytes(), pk.E.Bytes()
}

// UnmarshalRSAPublicKey reverses MarshalRSAPublicKey. The bytes come from
// a peer and Bob raises to e mod N once per comparison, so both are
// bounded by their length before any big-integer work: the modulus to
// MaxRSABits, the exponent to 32 bits. An even modulus cannot be a product
// of two odd primes, and an even exponent cannot be a unit mod φ(N).
func UnmarshalRSAPublicKey(nb, eb []byte) (*RSAPublicKey, error) {
	if len(nb) > MaxRSABits/8 {
		return nil, fmt.Errorf("%w: modulus of %d bytes above the %d-bit maximum", ErrPublicKey, len(nb), MaxRSABits)
	}
	if len(eb) > 4 {
		return nil, fmt.Errorf("%w: public exponent of %d bytes wider than 32 bits", ErrPublicKey, len(eb))
	}
	n := new(big.Int).SetBytes(nb)
	e := new(big.Int).SetBytes(eb)
	switch {
	case n.BitLen() < MinRSABits:
		return nil, fmt.Errorf("%w: modulus too small (%d bits)", ErrPublicKey, n.BitLen())
	case n.Bit(0) == 0:
		return nil, fmt.Errorf("%w: even modulus", ErrPublicKey)
	case e.Cmp(big.NewInt(3)) < 0 || e.Bit(0) == 0:
		return nil, fmt.Errorf("%w: public exponent %v is not an odd number ≥ 3", ErrPublicKey, e)
	}
	return &RSAPublicKey{N: n, E: e}, nil
}
