// Package mpc implements the paper's Multiplication Protocol (§4.1,
// Algorithm 2) and the two derived forms the DBSCAN protocols need:
//
//   - Multiply: the receiver holds x (and the Paillier key pair) and
//     obtains u = x·y + v, where y and the mask v belong to the sender.
//   - BatchMultiply: m independent multiplications sharing one message
//     round; this is how the horizontal distance protocol (HDP, §4.2)
//     computes its per-coordinate masked products with O(c1·m) bits.
//   - Dot: the secret-shared dot product of §5, u = a·b + v, used by the
//     enhanced protocol to share Dist²(A, B_i) between the parties with a
//     single ciphertext per point.
//
// All batch forms route their Paillier arithmetic through the parallel
// layer (paillier.EncryptBatch / DecryptSignedBatch / ParallelFor) via an
// explicit *paillier.Pool handle, so a batch of m instances costs one
// round trip and m/workers sequential modular exponentiations. A server
// process holding many sessions passes its shared bounded pool; a nil
// pool keeps the per-call GOMAXPROCS fan-out.
//
// Fidelity note: Algorithm 2 step 3 literally
// says Alice sends the encryption nonce r to Bob. Publishing a Paillier
// nonce lets the peer invert the ciphertext (x = (c·r^{−n} − 1)/n for
// g = n+1), which would void the protocol's own privacy claim, so — as in
// the correctness proof's intent — nonces here stay private and every
// ciphertext a party sends carries a fresh one. (The only ciphertexts
// built without a nonce are SenderDotManyPackedRetain's retained D_i,
// which are never sent.)
package mpc

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// ErrLengthMismatch reports that the two parties supplied vectors of
// different lengths.
var ErrLengthMismatch = errors.New("mpc: parties supplied different vector lengths")

// ReceiverMultiply runs the receiving half of Algorithm 2: the caller
// holds x and the key pair, and obtains u = x·y + v.
func ReceiverMultiply(conn transport.Conn, key *paillier.PrivateKey, x int64, random io.Reader) (*big.Int, error) {
	us, err := ReceiverBatchMultiply(conn, key, []int64{x}, random, nil)
	if err != nil {
		return nil, err
	}
	return us[0], nil
}

// SenderMultiply runs the sending half of Algorithm 2 with a caller-chosen
// mask v (the HDP zero-sum masks need exactly this control).
func SenderMultiply(conn transport.Conn, pub *paillier.PublicKey, y int64, v *big.Int, random io.Reader) error {
	return SenderBatchMultiply(conn, pub, []int64{y}, []*big.Int{v}, random, nil)
}

// ReceiverBatchMultiply performs m independent multiplications in one
// round trip: the receiver holds xs and obtains u_k = xs[k]·ys[k] + vs[k].
// pool routes the Paillier arithmetic over the process-shared crypto pool
// (nil: per-call GOMAXPROCS fan-out), as on every batch form below.
func ReceiverBatchMultiply(conn transport.Conn, key *paillier.PrivateKey, xs []int64, random io.Reader, pool *paillier.Pool) ([]*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	cts, err := key.EncryptInt64Batch(pool, random, xs)
	if err != nil {
		return nil, fmt.Errorf("mpc: encrypting xs: %w", err)
	}
	msg := transport.NewBuilder().PutBigs(cts)
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, fmt.Errorf("mpc: receiver send: %w", err)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("mpc: receiver recv: %w", err)
	}
	replies := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(replies) != len(xs) {
		return nil, fmt.Errorf("%w: sent %d, got %d", ErrLengthMismatch, len(xs), len(replies))
	}
	us, err := key.DecryptSignedBatch(pool, replies)
	if err != nil {
		return nil, fmt.Errorf("mpc: decrypting us: %w", err)
	}
	return us, nil
}

// SenderBatchMultiply is the sending half of ReceiverBatchMultiply: for
// each k it computes E(x_k)^{y_k} · E(v_k), i.e. an encryption of
// x_k·y_k + v_k under the receiver's key.
func SenderBatchMultiply(conn transport.Conn, pub *paillier.PublicKey, ys []int64, vs []*big.Int, random io.Reader, pool *paillier.Pool) error {
	if len(ys) != len(vs) {
		return fmt.Errorf("%w: %d multiplicands, %d masks", ErrLengthMismatch, len(ys), len(vs))
	}
	if random == nil {
		random = rand.Reader
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return fmt.Errorf("mpc: sender recv: %w", err)
	}
	cts := r.Bigs()
	if r.Err() != nil {
		return r.Err()
	}
	if len(cts) != len(ys) {
		return fmt.Errorf("%w: received %d, hold %d", ErrLengthMismatch, len(cts), len(ys))
	}
	// Masks first (sequential randomness), then the homomorphic arithmetic
	// on the worker pool.
	masks, err := pub.EncryptBatch(pool, random, vs)
	if err != nil {
		return fmt.Errorf("mpc: encrypting masks: %w", err)
	}
	replies := make([]*big.Int, len(ys))
	if err := paillier.ParallelFor(pool, len(ys), func(k int) error {
		prod, err := pub.Mul(cts[k], big.NewInt(ys[k]))
		if err != nil {
			return fmt.Errorf("mpc: homomorphic multiply [%d]: %w", k, err)
		}
		u, err := pub.Add(prod, masks[k])
		if err != nil {
			return fmt.Errorf("mpc: homomorphic add [%d]: %w", k, err)
		}
		replies[k] = u
		return nil
	}); err != nil {
		return err
	}
	return transport.SendMsg(conn, transport.NewBuilder().PutBigs(replies))
}

// ReceiverDot obtains u = a·b + v where the caller holds vector a.
// The caller sends one ciphertext per coordinate and receives one back,
// so a session that scores n sender points against the same a should use
// ReceiverDotMany instead.
func ReceiverDot(conn transport.Conn, key *paillier.PrivateKey, a []int64, random io.Reader) (*big.Int, error) {
	us, err := ReceiverDotMany(conn, key, a, 1, random, nil)
	if err != nil {
		return nil, err
	}
	return us[0], nil
}

// SenderDot is the sending half of ReceiverDot.
func SenderDot(conn transport.Conn, pub *paillier.PublicKey, b []int64, v *big.Int, random io.Reader) error {
	return SenderDotMany(conn, pub, [][]int64{b}, []*big.Int{v}, random, nil)
}

// ReceiverDotMany sends the encrypted coordinates of a once and receives
// `count` masked dot products u_i = a·b_i + v_i. This is the §5 pattern:
// Alice publishes E(a) for her extended point vector and Bob returns one
// ciphertext per point B_i, costing O(m + count) ciphertexts total.
func ReceiverDotMany(conn transport.Conn, key *paillier.PrivateKey, a []int64, count int, random io.Reader, pool *paillier.Pool) ([]*big.Int, error) {
	if count < 1 {
		return nil, fmt.Errorf("mpc: count %d < 1", count)
	}
	if random == nil {
		random = rand.Reader
	}
	cts, err := key.EncryptInt64Batch(pool, random, a)
	if err != nil {
		return nil, fmt.Errorf("mpc: encrypting a: %w", err)
	}
	msg := transport.NewBuilder().PutUint(uint64(count)).PutBigs(cts)
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, fmt.Errorf("mpc: dot send: %w", err)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("mpc: dot recv: %w", err)
	}
	replies := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(replies) != count {
		return nil, fmt.Errorf("%w: want %d dot products, got %d", ErrLengthMismatch, count, len(replies))
	}
	us, err := key.DecryptSignedBatch(pool, replies)
	if err != nil {
		return nil, fmt.Errorf("mpc: decrypting us: %w", err)
	}
	return us, nil
}

// SenderDotMany is the sending half of ReceiverDotMany: bs[i] is the i-th
// vector, vs[i] its mask. All vectors must match the receiver's dimension.
func SenderDotMany(conn transport.Conn, pub *paillier.PublicKey, bs [][]int64, vs []*big.Int, random io.Reader, pool *paillier.Pool) error {
	if len(bs) != len(vs) {
		return fmt.Errorf("%w: %d vectors, %d masks", ErrLengthMismatch, len(bs), len(vs))
	}
	if random == nil {
		random = rand.Reader
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return fmt.Errorf("mpc: dot sender recv: %w", err)
	}
	count := int(r.Uint())
	cts := r.Bigs()
	if r.Err() != nil {
		return r.Err()
	}
	if count != len(bs) {
		return fmt.Errorf("%w: receiver expects %d dot products, sender holds %d", ErrLengthMismatch, count, len(bs))
	}
	for i, b := range bs {
		if len(b) != len(cts) {
			return fmt.Errorf("%w: vector %d has %d coordinates, receiver sent %d", ErrLengthMismatch, i, len(b), len(cts))
		}
	}
	// Masks first (sequential randomness), then one worker-pool task per
	// output ciphertext: E(a·b_i + v_i) = E(v_i) · Π_k E(a_k)^{b_ik}, the
	// one-slot case of the slot fold — every uplink ciphertext is
	// range-checked whatever its scalar, and the m+2 small exponents share
	// one squaring chain.
	masks, err := pub.EncryptBatch(pool, random, vs)
	if err != nil {
		return fmt.Errorf("mpc: encrypting masks: %w", err)
	}
	replies := make([]*big.Int, len(bs))
	if err := paillier.ParallelFor(pool, len(bs), func(i int) error {
		acc, err := pub.SlotFold(masks[i], 1, [][]paillier.SlotTerm{dotTerms(cts, bs[i])})
		if err != nil {
			return fmt.Errorf("mpc: homomorphic dot product [%d]: %w", i, err)
		}
		replies[i] = acc
		return nil
	}); err != nil {
		return err
	}
	return transport.SendMsg(conn, transport.NewBuilder().PutBigs(replies))
}

// dotTerms pairs the uplink ciphertexts E(a_k) with one sender vector's
// coordinates: the factors of Π_k E(a_k)^{b_k} = E(a·b).
func dotTerms(cts []*big.Int, b []int64) []paillier.SlotTerm {
	terms := make([]paillier.SlotTerm, len(cts))
	for k, ct := range cts {
		terms[k] = paillier.SlotTerm{Base: ct, Scalar: big.NewInt(b[k])}
	}
	return terms
}

// RandomMask draws a uniform mask in [0, bound) for sender-side use.
func RandomMask(random io.Reader, bound *big.Int) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	if bound.Sign() <= 0 {
		return nil, fmt.Errorf("mpc: mask bound must be positive")
	}
	return rand.Int(random, bound)
}

// ZeroSumMasks draws m−1 uniform values in (−bound, bound) and sets the
// last so the total is zero — the r_1 + … + r_m = 0 masks of HDP (§4.2).
func ZeroSumMasks(random io.Reader, m int, bound *big.Int) ([]*big.Int, error) {
	if m < 1 {
		return nil, fmt.Errorf("mpc: need at least one mask")
	}
	if bound.Sign() <= 0 {
		return nil, fmt.Errorf("mpc: mask bound must be positive")
	}
	if random == nil {
		random = rand.Reader
	}
	masks := make([]*big.Int, m)
	sum := new(big.Int)
	double := new(big.Int).Lsh(bound, 1)
	for i := 0; i < m-1; i++ {
		r, err := rand.Int(random, double)
		if err != nil {
			return nil, err
		}
		r.Sub(r, bound) // uniform in [−bound, bound)
		masks[i] = r
		sum.Add(sum, r)
	}
	masks[m-1] = new(big.Int).Neg(sum)
	return masks, nil
}
