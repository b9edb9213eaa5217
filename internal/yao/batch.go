package yao

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// Batched YMPP: `count` independent Algorithm 1 instances over one shared
// domain n0 with the per-instance payloads packed into single frames, so a
// whole batch costs the same three message rounds as one comparison:
//
//	Bob → Alice: n0 ‖ count ‖ (k_1 − j_1 + 1) … (k_count − j_count + 1)
//	Alice → Bob: p_1 ‖ w_1,1..w_1,n0 ‖ … ‖ p_count ‖ w_count,1..w_count,n0
//	Bob → Alice: result bits
//
// Local work is unchanged — O(count·n0) RSA decryptions, spread over the
// shared crypto pool by decryptRange — only the round count drops from
// 3·count messages to 3.

// AliceCompareBatch runs Alice's side of `len(is)` batched Algorithm 1
// instances; is[t] pairs with Bob's js[t]. Returns i_t < j_t for every t.
func AliceCompareBatch(conn transport.Conn, key *RSAKey, is []int64, n0 int64, random io.Reader, pool *paillier.Pool) ([]bool, error) {
	for t, i := range is {
		if err := checkDomain(i, n0); err != nil {
			return nil, fmt.Errorf("yao: batch[%d]: %w", t, err)
		}
	}
	if len(is) == 0 {
		return nil, nil
	}
	if random == nil {
		random = rand.Reader
	}

	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("yao: alice recv batch round 1: %w", err)
	}
	bobN0 := int64(r.Uint())
	count := int(r.Uint())
	bases := r.Bigs()
	if r.Err() != nil {
		return nil, fmt.Errorf("yao: alice parse batch round 1: %w", r.Err())
	}
	if bobN0 != n0 {
		return nil, fmt.Errorf("%w: alice=%d bob=%d", ErrDomainMismatch, n0, bobN0)
	}
	if count != len(is) || len(bases) != len(is) {
		return nil, fmt.Errorf("%w: alice holds %d values, bob sent %d", ErrDomainMismatch, len(is), count)
	}

	out := transport.NewBuilder()
	for t, base := range bases {
		if base.Sign() < 0 || base.Cmp(key.N) >= 0 {
			return nil, fmt.Errorf("yao: batch[%d] round-1 value outside Z_N", t)
		}
		ys := decryptRange(pool, key, base, int(n0))
		p, zs, err := findSeparatingPrime(random, key.sepPrimeBits(), ys)
		if err != nil {
			return nil, fmt.Errorf("yao: batch[%d]: %w", t, err)
		}
		ws := make([]*big.Int, n0)
		for u := int64(1); u <= n0; u++ {
			w := new(big.Int).Set(zs[u-1])
			if u > is[t] {
				w.Add(w, one)
				if w.Cmp(p) >= 0 {
					w.Sub(w, p)
				}
			}
			ws[u-1] = w
		}
		out.PutBig(p).PutBigs(ws)
	}
	if err := transport.SendMsg(conn, out); err != nil {
		return nil, fmt.Errorf("yao: alice send batch round 2: %w", err)
	}

	res, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("yao: alice recv batch result: %w", err)
	}
	bits := res.Bools()
	if res.Err() != nil {
		return nil, res.Err()
	}
	if len(bits) != len(is) {
		return nil, fmt.Errorf("%w: got %d result bits, want %d", ErrDomainMismatch, len(bits), len(is))
	}
	return bits, nil
}

// BobCompareBatch runs Bob's side of AliceCompareBatch; js[t] pairs with
// Alice's is[t]. Returns i_t < j_t for every t.
func BobCompareBatch(conn transport.Conn, pub *RSAPublicKey, js []int64, n0 int64, random io.Reader) ([]bool, error) {
	for t, j := range js {
		if err := checkDomain(j, n0); err != nil {
			return nil, fmt.Errorf("yao: batch[%d]: %w", t, err)
		}
	}
	if len(js) == 0 {
		return nil, nil
	}
	if random == nil {
		random = rand.Reader
	}

	xs := make([]*big.Int, len(js))
	msg := transport.NewBuilder().PutUint(uint64(n0)).PutUint(uint64(len(js)))
	bases := make([]*big.Int, len(js))
	for t, j := range js {
		x, err := rand.Int(random, pub.N)
		if err != nil {
			return nil, fmt.Errorf("yao: sampling x[%d]: %w", t, err)
		}
		xs[t] = x
		k := pub.Encrypt(x)
		base := new(big.Int).Sub(k, big.NewInt(j-1))
		base.Mod(base, pub.N)
		bases[t] = base
	}
	msg.PutBigs(bases)
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, fmt.Errorf("yao: bob send batch round 1: %w", err)
	}

	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("yao: bob recv batch round 2: %w", err)
	}
	bits := make([]bool, len(js))
	for t, j := range js {
		p := r.Big()
		ws := r.Bigs()
		if r.Err() != nil {
			return nil, fmt.Errorf("yao: bob parse batch round 2 [%d]: %w", t, r.Err())
		}
		if err := checkRound2(pub, p, ws, n0); err != nil {
			return nil, fmt.Errorf("yao: batch[%d]: %w", t, err)
		}
		xModP := new(big.Int).Mod(xs[t], p)
		bits[t] = ws[j-1].Cmp(xModP) != 0
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBools(bits)); err != nil {
		return nil, fmt.Errorf("yao: bob send batch result: %w", err)
	}
	return bits, nil
}

// shiftAll embeds a batch of non-negative values into Algorithm 1's
// domain, validating the original [0, bound] range.
func shiftAll(vs []int64, bound, delta int64) ([]int64, error) {
	out := make([]int64, len(vs))
	for t, v := range vs {
		if v < 0 || v > bound {
			return nil, fmt.Errorf("yao: batch[%d] value %d outside [0,%d]", t, v, bound)
		}
		out[t] = v + delta
	}
	return out, nil
}

// AliceLessEqBatch decides a_t ≤ b_t for every a_t ∈ [0, bound]; pairs
// with BobLessEqBatch. Same embedding as AliceLessEq.
func AliceLessEqBatch(conn transport.Conn, key *RSAKey, as []int64, bound int64, random io.Reader, pool *paillier.Pool) ([]bool, error) {
	is, err := shiftAll(as, bound, 1)
	if err != nil {
		return nil, err
	}
	return AliceCompareBatch(conn, key, is, bound+2, random, pool)
}

// BobLessEqBatch is the Bob half of AliceLessEqBatch.
func BobLessEqBatch(conn transport.Conn, pub *RSAPublicKey, bs []int64, bound int64, random io.Reader) ([]bool, error) {
	js, err := shiftAll(bs, bound, 2)
	if err != nil {
		return nil, err
	}
	return BobCompareBatch(conn, pub, js, bound+2, random)
}

// AliceLessBatch decides a_t < b_t strictly; pairs with BobLessBatch.
func AliceLessBatch(conn transport.Conn, key *RSAKey, as []int64, bound int64, random io.Reader, pool *paillier.Pool) ([]bool, error) {
	is, err := shiftAll(as, bound, 1)
	if err != nil {
		return nil, err
	}
	return AliceCompareBatch(conn, key, is, bound+1, random, pool)
}

// BobLessBatch is the Bob half of AliceLessBatch.
func BobLessBatch(conn transport.Conn, pub *RSAPublicKey, bs []int64, bound int64, random io.Reader) ([]bool, error) {
	js, err := shiftAll(bs, bound, 1)
	if err != nil {
		return nil, err
	}
	return BobCompareBatch(conn, pub, js, bound+1, random)
}
