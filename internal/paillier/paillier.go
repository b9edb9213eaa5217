// Package paillier implements the Paillier additively homomorphic
// cryptosystem (Paillier, EUROCRYPT 1999) exactly as reviewed in §3.7 of
// the reproduced paper, on top of math/big, crypto/rand and
// internal/prime only.
//
// Supported homomorphic operations:
//
//	D(E(m1) · E(m2) mod n²)  = m1 + m2 mod n   (Add)
//	D(E(m1)^m2   mod n²)     = m1 · m2 mod n   (Mul)
//
// Plaintexts are elements of Z_n. The package additionally provides a
// centered "signed" encoding — values in (−n/2, n/2) map to Z_n with
// negatives represented as m+n — which is what the distance protocols use
// for masked negative intermediate values.
//
// The implementation uses the standard g = n+1 choice, which makes g^m a
// single modular multiplication (1 + m·n mod n²), and the key owner's
// factorisation wherever it helps: decryption is CRT-accelerated, and so
// is encryption by the party that holds the *PrivateKey.
//
// Keys. GenerateKey draws p and q with prime.Draw, which makes candidates
// exactly as crypto/rand.Prime does, rejects most composites by trial
// division before any exponentiation and accepts on Baillie–PSW, so keys
// keep crypto/rand.Prime's distribution. The CRT decryption constants are
// closed forms of inverses the key needs anyway, not exponentiations mod
// p² and q² (GenerateKey).
//
// A ciphertext is g^m·y with y a uniform n-th residue mod n². A peer that
// holds only the *PublicKey (UnmarshalPublicKey) draws r ∈ Z*_n and pays
// the full y = r^n mod n². The owner instead draws x_p ∈ Z*_p, x_q ∈ Z*_q
// and combines x_p^p mod p² with x_q^q mod q² by CRT: two half-size
// exponents over half-size moduli, about a quarter of the work. The
// distribution is unchanged, not merely close: key generation enforces
// gcd(n, φ(n)) = 1, so r ↦ r^n is a bijection from Z*_n onto the n-th
// residues, the n-th residues mod p² are exactly the p-th powers (q is a
// unit mod p(p−1)), and x ↦ x^p mod p² depends only on x mod p and is a
// bijection from Z*_p onto them. Both paths therefore sample the same
// uniform distribution over the same group, and no hardness assumption
// moves. Which path runs is decided by the receiver's type alone —
// Encrypt, EncryptBatch and EncryptInt64Batch on *PrivateKey shadow those
// of the embedded PublicKey — so taking &key.PublicKey opts back into the
// peer's r^n.
//
// When a nonce is owed. The nonce is what hides m in a ciphertext somebody
// else gets to look at, so one fresh uniform nonce is owed per ciphertext
// that goes on the wire — and nothing else. A ciphertext that stays inside
// the process that built it is an intermediate of a homomorphic
// computation, and Unblinded builds it as the bare g^m (nonce 1) for one
// multiplication instead of an exponentiation. The two users are the §5
// responder's retained share ciphertexts D_i = g^{v_i}·Π_k E(a_k)^{b_ik}
// (mpc.SenderDotRows, retaining) and the constant E(−shift) it adds to
// their negated differences (core's enhanced selection). Neither
// travels: every ciphertext derived from them is multiplied, before it
// is sent, by an encryption of its own — the bias group of the share
// reply, the packed mask term of a comparison reply — blinded by a fresh
// y = ρ^n. y is a uniform element of the group of n-th residues, drawn
// independently of everything else, so y·z is uniform in that group and
// independent of z
// for ANY n-th residue z, whether z was itself built from fresh nonces
// (before this rule) or is a fixed function of the nonces the peer put
// into its own uplink (now). The (plaintext, nonce) pair of every
// ciphertext on the wire, and the joint distribution of all of them,
// is therefore exactly what it was; no assumption moves here either.
// The condition a caller of Unblinded has to keep is the one stated above
// — the value and everything computed from it alone stay off the wire —
// and CI's grep gate confines the call to the two sites that keep it.
//
// The homomorphic side. Every packed reply and dot product is one
// SlotFold: a multi-base product Π b_i^{e_i} mod n² over one shared chain
// of squarings. The chain runs in Montgomery form mod n², and a step
// costs three math/big products — x·y, its low words times m′, that times
// n² — plus an add, a word shift and at most one subtraction: no division,
// where a multiply-and-reduce step would spend a long division worth
// about three products. The constants live on the key: GenerateKey and
// UnmarshalPublicKey compute, for R = 2^{W·k} with k the words of n², the
// word count k, m′ = −(n²)⁻¹ mod R and R² mod n² (n is odd, so n² is).
// Within a slot the fold multiplies its bases in three at a time from a
// table of their seven subset products when the widest scalar has 16 bits
// or more (a comparison reply's masks) and one at a time below that (a
// row-dot's coordinates). Exponentiations with one base — nonces,
// decryption, Mul — stay on big.Int.Exp, which has its own Montgomery
// loop.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"repro/internal/prime"
)

var one = big.NewInt(1)

// PublicKey holds the Paillier encryption key (n, g) with g = n+1.
type PublicKey struct {
	N        *big.Int // modulus n = p·q
	NSquared *big.Int // n², cached

	halfN *big.Int // n/2, cached for signed decoding

	// Montgomery arithmetic mod n² for SlotFold, with R = 2^{W·montK}
	// for the word size W: montK is the number of words of n², montNeg
	// is m′ = −(n²)⁻¹ mod R and montRR is R² mod n².
	montK           int
	montNeg, montRR *big.Int
}

// newPublicKey derives every cached value of the public key for an odd
// modulus n: an even one has no Montgomery form mod n².
func newPublicKey(n *big.Int) PublicKey {
	nn := new(big.Int).Mul(n, n)
	k := len(nn.Bits())
	r := new(big.Int).Lsh(one, uint(k*bits.UintSize))
	neg := new(big.Int).ModInverse(nn, r)
	return PublicKey{
		N:        n,
		NSquared: nn,
		halfN:    new(big.Int).Rsh(n, 1),
		montK:    k,
		montNeg:  neg.Sub(r, neg),
		montRR:   new(big.Int).Mod(new(big.Int).Lsh(one, uint(2*k*bits.UintSize)), nn),
	}
}

// PrivateKey holds the decryption key and CRT acceleration values.
type PrivateKey struct {
	PublicKey
	Lambda *big.Int // λ = lcm(p−1, q−1)
	Mu     *big.Int // μ = λ⁻¹ mod n  (valid for g = n+1)

	p, q       *big.Int // prime factors
	pSquared   *big.Int
	qSquared   *big.Int
	hp, hq     *big.Int // CRT decryption constants: p − q⁻¹ mod p, q − p⁻¹ mod q
	pOrderInv  *big.Int // q⁻¹ mod p for CRT recombination
	qSqInv     *big.Int // (q²)⁻¹ mod p² for CRT recombination of owner nonces
	plainBound *big.Int // n/2: |signed plaintext| must stay below this
}

// MinKeyBits is the smallest accepted modulus size. Test keys of 256 bits
// are accepted for speed; production use should be ≥1024. MaxKeyBits is
// the largest modulus UnmarshalPublicKey accepts from a peer.
const (
	MinKeyBits = 256
	MaxKeyBits = 8192
)

// GenerateKey creates a Paillier key pair with an n of the given bit size.
// random is typically crypto/rand.Reader. Both primes come from
// prime.Draw: crypto/rand.Prime's candidates, accepted on Baillie–PSW.
//
// The CRT decryption constants are closed forms of inverses the key needs
// anyway. With g = n+1, g^{p−1} ≡ 1 + (p−1)·n ≡ 1 + p·(−q mod p) mod p²,
// so L_p(g^{p−1} mod p²) = −q mod p and hp = (−q)⁻¹ mod p = p − q⁻¹ mod p;
// likewise hq = q − p⁻¹ mod q. No exponentiation mod p² or q² is needed.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < MinKeyBits {
		return nil, fmt.Errorf("paillier: key size %d below minimum %d", bits, MinKeyBits)
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		p, err := prime.Draw(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := prime.Draw(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		// Paillier requires gcd(n, (p−1)(q−1)) = 1; guaranteed when p and q
		// are distinct primes of the same length, but verify regardless.
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
			continue
		}
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Div(phi, gcd) // lcm(p−1, q−1)
		mu := new(big.Int).ModInverse(lambda, n)
		if mu == nil {
			continue
		}
		key := &PrivateKey{
			PublicKey: newPublicKey(n),
			Lambda:    lambda,
			Mu:        mu,
			p:         p,
			q:         q,
		}
		key.pSquared = new(big.Int).Mul(p, p)
		key.qSquared = new(big.Int).Mul(q, q)
		key.plainBound = new(big.Int).Rsh(n, 1)
		key.pOrderInv = new(big.Int).ModInverse(q, p)
		pInv := new(big.Int).ModInverse(p, q)
		key.qSqInv = new(big.Int).ModInverse(key.qSquared, key.pSquared)
		if key.pOrderInv == nil || pInv == nil || key.qSqInv == nil {
			continue
		}
		key.hp = new(big.Int).Sub(p, key.pOrderInv)
		key.hq = pInv.Sub(q, pInv)
		return key, nil
	}
}

// lFunc is Paillier's L(u) = (u−1)/r.
func lFunc(u, r *big.Int) *big.Int {
	t := new(big.Int).Sub(u, one)
	return t.Div(t, r)
}

// Errors returned by encryption, decryption, the homomorphic operations
// and public-key parsing.
var (
	ErrMessageRange    = errors.New("paillier: message outside plaintext space")
	ErrCiphertextRange = errors.New("paillier: ciphertext outside Z_{n²}")
	ErrNotInvertible   = errors.New("paillier: ciphertext not invertible mod n²")
	ErrPublicKey       = errors.New("paillier: invalid public key")
)

// Encode maps a signed plaintext into Z_n (negatives become m+n).
// The absolute value must be below n/2.
func (pk *PublicKey) Encode(m *big.Int) (*big.Int, error) {
	abs := new(big.Int).Abs(m)
	if abs.Cmp(pk.halfN) >= 0 {
		return nil, fmt.Errorf("%w: |m| ≥ n/2", ErrMessageRange)
	}
	if m.Sign() < 0 {
		return new(big.Int).Add(m, pk.N), nil
	}
	return new(big.Int).Set(m), nil
}

// DecodeSigned interprets a Z_n plaintext under the centered encoding.
func (pk *PublicKey) DecodeSigned(m *big.Int) *big.Int {
	if m.Cmp(pk.halfN) > 0 {
		return new(big.Int).Sub(m, pk.N)
	}
	return new(big.Int).Set(m)
}

// nonceSeed is what one nonce draws from the random source: r ∈ Z*_n for
// a public key, (x_p, x_q) ∈ Z*_p × Z*_q for the key owner.
type nonceSeed [2]*big.Int

// A noncer produces the uniform n-th residue that blinds a ciphertext, in
// two steps so that a batch can draw every seed on the calling goroutine
// (the reader need not be goroutine-safe) and raise them on the pool.
type noncer interface {
	drawNonce(random io.Reader) (nonceSeed, error)
	raiseNonce(seed nonceSeed) *big.Int
}

// drawNonce samples r ∈ Z*_n.
func (pk *PublicKey) drawNonce(random io.Reader) (nonceSeed, error) {
	for {
		r, err := randomNonzero(random, pk.N)
		if err != nil {
			return nonceSeed{}, err
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return nonceSeed{r}, nil
		}
	}
}

// raiseNonce is the peer's r^n mod n².
func (pk *PublicKey) raiseNonce(seed nonceSeed) *big.Int {
	return new(big.Int).Exp(seed[0], pk.N, pk.NSquared)
}

// drawNonce samples x_p ∈ Z*_p and x_q ∈ Z*_q.
func (sk *PrivateKey) drawNonce(random io.Reader) (nonceSeed, error) {
	xp, err := randomNonzero(random, sk.p)
	if err != nil {
		return nonceSeed{}, err
	}
	xq, err := randomNonzero(random, sk.q)
	if err != nil {
		return nonceSeed{}, err
	}
	return nonceSeed{xp, xq}, nil
}

// raiseNonce is the owner's CRT(x_p^p mod p², x_q^q mod q²): the same
// uniform n-th residue as r^n (see the package comment) from two
// half-size exponentiations.
func (sk *PrivateKey) raiseNonce(seed nonceSeed) *big.Int {
	yp := new(big.Int).Exp(seed[0], sk.p, sk.pSquared)
	yq := new(big.Int).Exp(seed[1], sk.q, sk.qSquared)
	// CRT: y = yq + q²·((yp−yq)·(q²)⁻¹ mod p²), already below n².
	yp.Sub(yp, yq)
	yp.Mul(yp, sk.qSqInv)
	yp.Mod(yp, sk.pSquared)
	yp.Mul(yp, sk.qSquared)
	return yp.Add(yp, yq)
}

// randomNonzero samples uniformly from [1, n) (crypto/rand.Reader when
// random is nil).
func randomNonzero(random io.Reader, n *big.Int) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	for {
		r, err := rand.Int(random, n)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling nonce: %w", err)
		}
		if r.Sign() != 0 {
			return r, nil
		}
	}
}

// encrypt is Encrypt for either key type.
func encrypt(k noncer, pk *PublicKey, random io.Reader, m *big.Int) (*big.Int, error) {
	enc, err := pk.Encode(m)
	if err != nil {
		return nil, err
	}
	seed, err := k.drawNonce(random)
	if err != nil {
		return nil, err
	}
	return pk.encryptEncoded(enc, k.raiseNonce(seed)), nil
}

// Encrypt encrypts a signed plaintext with fresh randomness from random
// (crypto/rand.Reader when nil), paying the peer's r^n.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*big.Int, error) {
	return encrypt(pk, pk, random, m)
}

// Encrypt is PublicKey.Encrypt with the owner's CRT nonce.
func (sk *PrivateKey) Encrypt(random io.Reader, m *big.Int) (*big.Int, error) {
	return encrypt(sk, &sk.PublicKey, random, m)
}

// EncryptWithNonce encrypts with a caller-supplied unit r ∈ Z*_n; used by
// tests for known-answer checks.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*big.Int, error) {
	enc, err := pk.Encode(m)
	if err != nil {
		return nil, err
	}
	if r.Sign() <= 0 || r.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: nonce outside Z*_n")
	}
	return pk.encryptEncoded(enc, pk.raiseNonce(nonceSeed{r})), nil
}

// gPow returns g^m for an encoded m ∈ Z_n: (n+1)^m = 1 + m·n (mod n²).
func (pk *PublicKey) gPow(m *big.Int) *big.Int {
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	return gm.Mod(gm, pk.NSquared)
}

// encryptEncoded blinds g^m with the n-th residue y.
func (pk *PublicKey) encryptEncoded(m, y *big.Int) *big.Int {
	gm := pk.gPow(m)
	gm.Mul(gm, y)
	return gm.Mod(gm, pk.NSquared)
}

// Unblinded returns g^m, the encryption of the signed plaintext m under
// the nonce 1: no randomness is drawn and nothing is exponentiated. It
// hides nothing from a holder of the public key, so it is only for a
// ciphertext that never leaves the process — see "When a nonce is owed"
// in the package comment. The message range is Encrypt's.
func (pk *PublicKey) Unblinded(m *big.Int) (*big.Int, error) {
	enc, err := pk.Encode(m)
	if err != nil {
		return nil, err
	}
	return pk.gPow(enc), nil
}

// validCiphertext checks c ∈ [0, n²).
func (pk *PublicKey) validCiphertext(c *big.Int) error {
	if c.Sign() < 0 || c.Cmp(pk.NSquared) >= 0 {
		return ErrCiphertextRange
	}
	return nil
}

// Decrypt returns the plaintext in [0, n) using CRT acceleration.
func (sk *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if err := sk.validCiphertext(c); err != nil {
		return nil, err
	}
	// m_p = L_p(c^{p−1} mod p²)·hp mod p, likewise mod q, then CRT.
	mp := sk.decryptMod(c, sk.p, sk.pSquared, sk.hp)
	mq := sk.decryptMod(c, sk.q, sk.qSquared, sk.hq)
	// CRT: m = mq + q·((mp−mq)·q⁻¹ mod p)
	diff := new(big.Int).Sub(mp, mq)
	diff.Mul(diff, sk.pOrderInv)
	diff.Mod(diff, sk.p)
	m := new(big.Int).Mul(diff, sk.q)
	m.Add(m, mq)
	return m.Mod(m, sk.N), nil
}

func (sk *PrivateKey) decryptMod(c, r, rSquared, h *big.Int) *big.Int {
	rm1 := new(big.Int).Sub(r, one)
	u := new(big.Int).Exp(c, rm1, rSquared)
	l := lFunc(u, r)
	l.Mul(l, h)
	return l.Mod(l, r)
}

// DecryptSigned decrypts under the centered signed encoding.
func (sk *PrivateKey) DecryptSigned(c *big.Int) (*big.Int, error) {
	m, err := sk.Decrypt(c)
	if err != nil {
		return nil, err
	}
	return sk.DecodeSigned(m), nil
}

// decryptSlow is the textbook (non-CRT) decryption; retained for
// cross-checking in tests.
func (sk *PrivateKey) decryptSlow(c *big.Int) *big.Int {
	u := new(big.Int).Exp(c, sk.Lambda, sk.NSquared)
	m := lFunc(u, sk.N)
	m.Mul(m, sk.Mu)
	return m.Mod(m, sk.N)
}

// Add returns a ciphertext of m1+m2 given ciphertexts of m1 and m2.
func (pk *PublicKey) Add(c1, c2 *big.Int) (*big.Int, error) {
	if err := pk.validCiphertext(c1); err != nil {
		return nil, err
	}
	if err := pk.validCiphertext(c2); err != nil {
		return nil, err
	}
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, pk.NSquared), nil
}

// AddPlain returns a ciphertext of m1+k given a ciphertext of m1 and a
// signed plaintext k.
func (pk *PublicKey) AddPlain(c, k *big.Int) (*big.Int, error) {
	if err := pk.validCiphertext(c); err != nil {
		return nil, err
	}
	gk, err := pk.Unblinded(k)
	if err != nil {
		return nil, err
	}
	gk.Mul(gk, c)
	return gk.Mod(gk, pk.NSquared), nil
}

// Mul returns a ciphertext of m·k given a ciphertext of m and a signed
// plaintext scalar k (negative k uses the modular inverse of c).
func (pk *PublicKey) Mul(c, k *big.Int) (*big.Int, error) {
	if err := pk.validCiphertext(c); err != nil {
		return nil, err
	}
	if k.Sign() < 0 {
		inv := new(big.Int).ModInverse(c, pk.NSquared)
		if inv == nil {
			return nil, ErrNotInvertible
		}
		return new(big.Int).Exp(inv, new(big.Int).Neg(k), pk.NSquared), nil
	}
	return new(big.Int).Exp(c, k, pk.NSquared), nil
}

// Randomize re-randomizes a ciphertext: same plaintext, fresh nonce.
func (pk *PublicKey) Randomize(random io.Reader, c *big.Int) (*big.Int, error) {
	if err := pk.validCiphertext(c); err != nil {
		return nil, err
	}
	seed, err := pk.drawNonce(random)
	if err != nil {
		return nil, err
	}
	y := pk.raiseNonce(seed)
	y.Mul(y, c)
	return y.Mod(y, pk.NSquared), nil
}

// PlaintextBound returns n/2: signed plaintexts must have absolute value
// strictly below this bound.
func (pk *PublicKey) PlaintextBound() *big.Int { return new(big.Int).Set(pk.halfN) }

// Bits returns the modulus size in bits.
func (pk *PublicKey) Bits() int { return pk.N.BitLen() }

// MarshalPublicKey serializes the public key for the wire.
func MarshalPublicKey(pk *PublicKey) []byte {
	return pk.N.Bytes()
}

// UnmarshalPublicKey reconstructs a public key from MarshalPublicKey
// output. The bytes come from a peer, so the modulus is bounded before it
// is squared and must be odd: an even n cannot be a product of two odd
// primes, has no Montgomery form mod n² for SlotFold, and would take
// every later math/big operation off its Montgomery path.
func UnmarshalPublicKey(b []byte) (*PublicKey, error) {
	if len(b) > MaxKeyBits/8 {
		return nil, fmt.Errorf("%w: modulus of %d bytes above the %d-bit maximum", ErrPublicKey, len(b), MaxKeyBits)
	}
	n := new(big.Int).SetBytes(b)
	if n.BitLen() < MinKeyBits {
		return nil, fmt.Errorf("%w: modulus too small (%d bits)", ErrPublicKey, n.BitLen())
	}
	if n.Bit(0) == 0 {
		return nil, fmt.Errorf("%w: even modulus", ErrPublicKey)
	}
	pk := newPublicKey(n)
	return &pk, nil
}
