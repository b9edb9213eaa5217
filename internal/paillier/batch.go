package paillier

import (
	"io"
	"math/big"
)

// Batch operations: the parallel Paillier layer. One protocol message in
// the batched sub-protocols carries many independent ciphertexts, and the
// per-ciphertext work — the nonce and c^{p−1} modular exponentiations — is
// embarrassingly parallel. Every batch op takes an explicit *Pool handle:
// a server process shares one bounded Pool across all of its sessions
// (core.SessionManager), while a nil pool — the solo-session default —
// fans each call out over GOMAXPROCS. EncryptBatch and DecryptBatch (and
// their signed variants) are the entry points the MPC and comparison
// layers use.
//
// Randomness discipline: the io.Reader supplying nonces is not assumed to
// be safe for concurrent use (tests pass deterministic readers), so all
// random sampling happens sequentially on the calling goroutine; only the
// deterministic big-integer arithmetic fans out to the pool.

// encryptBatch is EncryptBatch for either key type: encode and draw the
// nonce seeds sequentially, raise them on the worker pool.
func encryptBatch(k noncer, pk *PublicKey, pool *Pool, random io.Reader, ms []*big.Int) ([]*big.Int, error) {
	enc := make([]*big.Int, len(ms))
	seeds := make([]nonceSeed, len(ms))
	for i, m := range ms {
		e, err := pk.Encode(m)
		if err != nil {
			return nil, err
		}
		enc[i] = e
		if seeds[i], err = k.drawNonce(random); err != nil {
			return nil, err
		}
	}
	out := make([]*big.Int, len(ms))
	if err := ParallelFor(pool, len(ms), func(i int) error {
		out[i] = pk.encryptEncoded(enc[i], k.raiseNonce(seeds[i]))
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptBatch encrypts every plaintext under pk with fresh nonces.
// Nonce sampling is sequential (random need not be goroutine-safe); the
// modular exponentiations run on the worker pool.
func (pk *PublicKey) EncryptBatch(pool *Pool, random io.Reader, ms []*big.Int) ([]*big.Int, error) {
	return encryptBatch(pk, pk, pool, random, ms)
}

// EncryptBatch is PublicKey.EncryptBatch with the owner's CRT nonces.
func (sk *PrivateKey) EncryptBatch(pool *Pool, random io.Reader, ms []*big.Int) ([]*big.Int, error) {
	return encryptBatch(sk, &sk.PublicKey, pool, random, ms)
}

// EncryptInt64Batch is EncryptBatch over int64 plaintexts — the common
// case for protocol values.
func (pk *PublicKey) EncryptInt64Batch(pool *Pool, random io.Reader, vs []int64) ([]*big.Int, error) {
	return pk.EncryptBatch(pool, random, bigs(vs))
}

// EncryptInt64Batch is PublicKey.EncryptInt64Batch with the owner's CRT
// nonces.
func (sk *PrivateKey) EncryptInt64Batch(pool *Pool, random io.Reader, vs []int64) ([]*big.Int, error) {
	return sk.EncryptBatch(pool, random, bigs(vs))
}

func bigs(vs []int64) []*big.Int {
	ms := make([]*big.Int, len(vs))
	for i, v := range vs {
		ms[i] = big.NewInt(v)
	}
	return ms
}

// DecryptBatch decrypts every ciphertext on the worker pool.
func (sk *PrivateKey) DecryptBatch(pool *Pool, cs []*big.Int) ([]*big.Int, error) {
	out := make([]*big.Int, len(cs))
	if err := ParallelFor(pool, len(cs), func(i int) error {
		m, err := sk.Decrypt(cs[i])
		if err != nil {
			return err
		}
		out[i] = m
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptSignedBatch decrypts every ciphertext under the centered signed
// encoding on the worker pool.
func (sk *PrivateKey) DecryptSignedBatch(pool *Pool, cs []*big.Int) ([]*big.Int, error) {
	out := make([]*big.Int, len(cs))
	if err := ParallelFor(pool, len(cs), func(i int) error {
		m, err := sk.DecryptSigned(cs[i])
		if err != nil {
			return err
		}
		out[i] = m
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
