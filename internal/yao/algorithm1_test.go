package yao

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand/v2"
	"testing"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// The reference: Algorithm 1 verbatim, one instance, its own wire form
// (no count, one result bit). Production speaks only the batch form
// (batch.go); TestBatchOfOneMatchesAlgorithm1 holds a batch of one to
// what this decides and sends.

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
	// in the mod-p sense. Each try is a prime.Draw: crypto/rand.Prime's
	// candidates, accepted on Baillie–PSW.
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

// recordConn keeps a copy of every frame sent through it.
type recordConn struct {
	transport.Conn
	sent [][]byte
}

func (r *recordConn) Send(b []byte) error {
	r.sent = append(r.sent, append([]byte(nil), b...))
	return r.Conn.Send(b)
}

// seeded is a deterministic stream, so two runs draw the same x and p.
func seeded(b byte) io.Reader { return mrand.NewChaCha8([32]byte{b}) }

// TestBatchOfOneMatchesAlgorithm1: over every (i, j) of a small domain, a
// batch of one decides what verbatim Algorithm 1 decides, i < j, on both
// sides and in three frames — and on the same randomness it sends
// Algorithm 1's very values: Bob's round 1 carries the same k − j + 1
// behind a count of one, Alice's round 2 is byte for byte Algorithm 1's
// (p ‖ w_1 … w_n0), and Bob's verdict is the same bit.
func TestBatchOfOneMatchesAlgorithm1(t *testing.T) {
	k := testRSAKey(t)
	const n0 = 6
	run := func(alice func(transport.Conn) (bool, error), bob func(transport.Conn) (bool, error)) (a, b bool, ra, rb *recordConn) {
		t.Helper()
		ca, cb := transport.Pipe()
		ra, rb = &recordConn{Conn: ca}, &recordConn{Conn: cb}
		err := transport.RunPair(ra, rb,
			func(c transport.Conn) (err error) { a, err = alice(c); return },
			func(c transport.Conn) (err error) { b, err = bob(c); return })
		if err != nil {
			t.Fatal(err)
		}
		return a, b, ra, rb
	}
	first := func(bits []bool, err error) (bool, error) {
		if err != nil {
			return false, err
		}
		if len(bits) != 1 {
			return false, fmt.Errorf("%d results for a batch of one", len(bits))
		}
		return bits[0], nil
	}
	for i := int64(1); i <= n0; i++ {
		for j := int64(1); j <= n0; j++ {
			seed := byte(n0*i + j)
			va, vb, vra, vrb := run(
				func(c transport.Conn) (bool, error) { return AliceCompare(c, k, i, n0, seeded(seed), nil) },
				func(c transport.Conn) (bool, error) { return BobCompare(c, &k.RSAPublicKey, j, n0, seeded(^seed)) })
			ba, bb, bra, brb := run(
				func(c transport.Conn) (bool, error) {
					return first(AliceCompareBatch(c, k, []int64{i}, n0, seeded(seed), nil))
				},
				func(c transport.Conn) (bool, error) {
					return first(BobCompareBatch(c, &k.RSAPublicKey, []int64{j}, n0, seeded(^seed)))
				})
			if va != (i < j) || vb != va || ba != va || bb != va {
				t.Fatalf("(i=%d, j=%d): Algorithm 1 (%v, %v), batch of one (%v, %v), want %v", i, j, va, vb, ba, bb, i < j)
			}
			if len(bra.sent)+len(brb.sent) != 3 || len(bra.sent) != 1 {
				t.Fatalf("(i=%d, j=%d): batch of one sent %d + %d frames, want 1 + 2", i, j, len(bra.sent), len(brb.sent))
			}
			if !bytes.Equal(bra.sent[0], vra.sent[0]) {
				t.Fatalf("(i=%d, j=%d): round 2 differs from Algorithm 1's", i, j)
			}
			vr, br := transport.NewReader(vrb.sent[0]), transport.NewReader(brb.sent[0])
			vn0, bn0, count := vr.Uint(), br.Uint(), br.Uint()
			vbase, bbases := vr.Big(), br.Bigs()
			if vr.Err() != nil || br.Err() != nil || vn0 != bn0 || count != 1 || len(bbases) != 1 || vbase.Cmp(bbases[0]) != 0 {
				t.Fatalf("(i=%d, j=%d): round 1 (%d, %v) against batch (%d, %d, %v)", i, j, vn0, vbase, bn0, count, bbases)
			}
			vbit, bbits := transport.NewReader(vrb.sent[1]).Bool(), transport.NewReader(brb.sent[1]).Bools()
			if len(bbits) != 1 || bbits[0] != vbit {
				t.Fatalf("(i=%d, j=%d): verdict %v against batch %v", i, j, vbit, bbits)
			}
		}
	}
}
