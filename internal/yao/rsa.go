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
		return &RSAKey{
			RSAPublicKey: RSAPublicKey{N: new(big.Int).Mul(p, q), E: e},
			D:            d,
			p:            p,
			q:            q,
			dp:           new(big.Int).Mod(d, pm1),
			dq:           new(big.Int).Mod(d, qm1),
			qInv:         qInv,
		}, nil
	}
}

// Encrypt evaluates Ea(x) = x^e mod N.
func (pk *RSAPublicKey) Encrypt(x *big.Int) *big.Int {
	return new(big.Int).Exp(x, pk.E, pk.N)
}

// Decrypt evaluates Da(y) = y^d mod N using the CRT.
func (k *RSAKey) Decrypt(y *big.Int) *big.Int {
	// m1 = y^dp mod p, m2 = y^dq mod q, h = qInv·(m1−m2) mod p,
	// m = m2 + h·q.
	m1 := new(big.Int).Exp(y, k.dp, k.p)
	m2 := new(big.Int).Exp(y, k.dq, k.q)
	h := new(big.Int).Sub(m1, m2)
	h.Mul(h, k.qInv)
	h.Mod(h, k.p)
	m := new(big.Int).Mul(h, k.q)
	m.Add(m, m2)
	return m.Mod(m, k.N)
}

// decryptSlow is the non-CRT path, kept for cross-checks in tests.
func (k *RSAKey) decryptSlow(y *big.Int) *big.Int {
	return new(big.Int).Exp(y, k.D, k.N)
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
