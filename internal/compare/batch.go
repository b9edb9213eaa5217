package compare

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Batched comparison: one BatchLessEq/BatchLess call decides a whole
// vector of independent predicates in a constant number of message rounds
// — three frames regardless of batch size — instead of one complete
// sub-protocol per value. This is what collapses the per-region-query
// round count of the distance protocols from O(nPeer) to O(1).
//
// Both engines keep their scalar semantics element-wise:
//
//   - YMPP: the batch frames carry `count` Algorithm 1 payloads
//     (internal/yao batch forms); local cost is unchanged at
//     O(count·Bound) but rounds drop from 3·count to 3.
//   - Masked: Alice packs E(a_1)…E(a_count) into one frame, Bob replies
//     with the count masked differences computed on the parallel Paillier
//     pool, and Alice returns the sign bits. O(count) ciphertexts in 3
//     frames, with all modular exponentiation spread over the engine's
//     crypto pool (the process-shared bounded pool on a multi-session
//     server; GOMAXPROCS for a solo run with a nil Pool).
//
// An empty batch returns immediately on both sides without touching the
// connection. The parties must agree on batch length: a mismatch between
// two non-empty batches is detected from the frame contents and reported
// as an error, but an empty batch against a non-empty one exchanges no
// frames on the empty side and leaves the peer blocked — callers must
// derive batch lengths from shared deterministic protocol state (as every
// caller in internal/core and internal/multiparty does).

// FrameBytes is what one instance adds, at most, to the largest frame of
// its batch. Both ends of an edge report the same number — it is a
// function of the engine, the bound and the Alice side's public key, all
// of which both hold — so it may size a jointly-computed schedule:
// core.LockstepCluster's chunk rule reads it.
//
//   - YMPP: round 2 carries the whole domain per instance — the prime p
//     and bound+2 residues below it, |N|/2 bits each, behind a count.
//   - Masked: the uplink, one Paillier ciphertext in Z_{n²} per instance
//     plus, in grouped mode, its class index.

// wireBig is the most transport.Builder.PutBig spends on a value below
// 2^bits: sign byte, length prefix, magnitude.
func wireBig(bits int) int { return 3 + (bits+7)/8 }

func ymppFrameBytes(bound int64, pub *yao.RSAPublicKey) int {
	// bound+2 residues, p, and one more for the count prefix.
	return int(bound+4) * wireBig(pub.N.BitLen()/2)
}

func maskedFrameBytes(pub *paillier.PublicKey) int {
	return wireBig(pub.NSquared.BitLen()) + binary.MaxVarintLen32
}

func (a *YMPPAlice) FrameBytes() int   { return ymppFrameBytes(a.Max, &a.Key.RSAPublicKey) }
func (b *YMPPBob) FrameBytes() int     { return ymppFrameBytes(b.Max, b.Pub) }
func (a *MaskedAlice) FrameBytes() int { return maskedFrameBytes(&a.Key.PublicKey) }
func (b *MaskedBob) FrameBytes() int   { return maskedFrameBytes(b.Pub) }

// ---- YMPP engine ----

// BatchLessEq decides a_t ≤ b_t for the whole batch in three frames.
func (a *YMPPAlice) BatchLessEq(conn transport.Conn, vs []int64) ([]bool, error) {
	return yao.AliceLessEqBatch(conn, a.Key, vs, a.Max, a.Random, a.Pool)
}

// BatchLess decides a_t < b_t for the whole batch in three frames.
func (a *YMPPAlice) BatchLess(conn transport.Conn, vs []int64) ([]bool, error) {
	return yao.AliceLessBatch(conn, a.Key, vs, a.Max, a.Random, a.Pool)
}

// BatchLessEqRows is BatchLessEq: Algorithm 1's frames do not depend on
// which operands are equal, so YMPP has no use for the rows.
func (a *YMPPAlice) BatchLessEqRows(conn transport.Conn, vs []int64, _ []int) ([]bool, error) {
	return a.BatchLessEq(conn, vs)
}

// BatchLessRows is BatchLess; see BatchLessEqRows.
func (a *YMPPAlice) BatchLessRows(conn transport.Conn, vs []int64, _ []int) ([]bool, error) {
	return a.BatchLess(conn, vs)
}

// BatchLessEq is the Bob half of the Alice-side BatchLessEq.
func (b *YMPPBob) BatchLessEq(conn transport.Conn, vs []int64) ([]bool, error) {
	return yao.BobLessEqBatch(conn, b.Pub, vs, b.Max, b.Random)
}

// BatchLess is the Bob half of the Alice-side BatchLess.
func (b *YMPPBob) BatchLess(conn transport.Conn, vs []int64) ([]bool, error) {
	return yao.BobLessBatch(conn, b.Pub, vs, b.Max, b.Random)
}

// ---- Masked-sign engine ----

// runBatch is the Alice side of the batched masked-sign protocol:
// one frame of E(a_t), one frame of masked differences back, one frame of
// result bits out.
func (a *MaskedAlice) runBatch(conn transport.Conn, vs []int64, rows []int, pred byte) ([]bool, error) {
	if a.UplinkPacker != nil {
		// "full" packing: the packed-uplink wire form (full.go) chooses
		// per batch between grouped and per-instance uplinks. It is the
		// only form whose frames depend on equal operands, so the only
		// one that reads rows.
		return a.runBatchFull(conn, vs, rows, pred)
	}
	for t, v := range vs {
		if err := checkInput(v, a.Max); err != nil {
			return nil, fmt.Errorf("compare: batch[%d]: %w", t, err)
		}
	}
	if len(vs) == 0 {
		return nil, nil
	}
	random := a.Random
	if random == nil {
		random = rand.Reader
	}
	cts, err := a.Key.EncryptInt64Batch(a.Pool, random, vs)
	if err != nil {
		return nil, err
	}
	msg := transport.NewBuilder().PutUint(uint64(pred)).PutBigs(cts)
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, fmt.Errorf("compare: alice batch send: %w", err)
	}
	addSent(a.Sent, len(cts))
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("compare: alice batch recv: %w", err)
	}
	replies := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	var les []bool
	if a.Packer != nil {
		// Packed replies: ⌈count/S⌉ ciphertexts, each carrying S biased
		// masked differences.
		if les, err = a.unpackReplies(a.Packer, len(vs), replies); err != nil {
			return nil, err
		}
	} else {
		if len(replies) != len(vs) {
			return nil, fmt.Errorf("compare: batch sent %d values, got %d replies", len(vs), len(replies))
		}
		ts, err := a.Key.DecryptSignedBatch(a.Pool, replies)
		if err != nil {
			return nil, err
		}
		les = make([]bool, len(ts))
		for t, ti := range ts {
			// t_i = r·(b′_i−a_i) + r′ with 0 ≤ r′ < r, so t_i ≥ 0 ⟺ a_i ≤ b′_i.
			les[t] = ti.Sign() >= 0
		}
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBools(les)); err != nil {
		return nil, fmt.Errorf("compare: alice batch send result: %w", err)
	}
	return les, nil
}

// BatchLessEq decides a_t ≤ b_t for the whole batch in three frames.
func (a *MaskedAlice) BatchLessEq(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.runBatch(conn, vs, nil, predLessEq)
}

// BatchLess decides a_t < b_t for the whole batch in three frames.
func (a *MaskedAlice) BatchLess(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.runBatch(conn, vs, nil, predLess)
}

// BatchLessEqRows is BatchLessEq with the grouped uplink's dedup scoped
// to rows (full.go): rows[t] names instance t's row.
func (a *MaskedAlice) BatchLessEqRows(conn transport.Conn, vs []int64, rows []int) ([]bool, error) {
	return a.runBatch(conn, vs, rows, predLessEq)
}

// BatchLessRows is the strict variant of BatchLessEqRows.
func (a *MaskedAlice) BatchLessRows(conn transport.Conn, vs []int64, rows []int) ([]bool, error) {
	return a.runBatch(conn, vs, rows, predLess)
}

// runBatch is the Bob side of the batched masked-sign protocol. Mask
// sampling is sequential (the configured reader need not be
// goroutine-safe); the homomorphic arithmetic runs on the parallel
// Paillier pool.
func (b *MaskedBob) runBatch(conn transport.Conn, vs []int64, pred byte) ([]bool, error) {
	if b.UplinkPacker != nil {
		// "full" packing: the packed-uplink wire form (full.go) parses
		// the mode Alice chose for this batch.
		return b.runBatchFull(conn, vs, pred)
	}
	for t, v := range vs {
		if err := checkInput(v, b.Max); err != nil {
			return nil, fmt.Errorf("compare: batch[%d]: %w", t, err)
		}
	}
	if len(vs) == 0 {
		return nil, nil
	}
	random := b.Random
	if random == nil {
		random = rand.Reader
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("compare: bob batch recv: %w", err)
	}
	gotPred := byte(r.Uint())
	cas := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if gotPred != pred {
		return nil, fmt.Errorf("%w: alice=%d bob=%d", ErrPredicateMismatch, gotPred, pred)
	}
	if len(cas) != len(vs) {
		return nil, fmt.Errorf("compare: batch holds %d values, got %d ciphertexts", len(vs), len(cas))
	}
	rMasks, plains, err := b.sampleMasks(vs, pred, random)
	if err != nil {
		return nil, err
	}
	var cts []*big.Int
	if b.Packer != nil {
		// Packed replies: one ciphertext per slot group. The plaintext
		// part packs the S values b·r + r′ with the per-slot bias; each
		// uplink ciphertext is then scaled by −r shifted into its slot,
		// so slot s of group g decrypts to r·(b−a) + r′ + bias — always
		// non-negative, never carrying into the neighbouring slot. The
		// masks r, r′ stay independent per instance exactly as in the
		// unpacked path; packing compresses the frame, not the masking.
		cts, err = b.packedReplies(b.Packer, len(vs), rMasks, plains, random, func(t int) (*big.Int, error) {
			return cas[t], nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		term2s, err := b.Pub.EncryptBatch(b.Pool, random, plains)
		if err != nil {
			return nil, err
		}
		cts = make([]*big.Int, len(vs))
		if err := paillier.ParallelFor(b.Pool, len(vs), func(t int) error {
			// E(t) = E(a)^(−r) · E(b·r + r′)
			term1, err := b.Pub.Mul(cas[t], new(big.Int).Neg(rMasks[t]))
			if err != nil {
				return err
			}
			ct, err := b.Pub.Add(term1, term2s[t])
			if err != nil {
				return err
			}
			cts[t] = ct
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBigs(cts)); err != nil {
		return nil, fmt.Errorf("compare: bob batch send: %w", err)
	}
	addSent(b.Sent, len(cts))
	res, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("compare: bob batch recv result: %w", err)
	}
	les := res.Bools()
	if res.Err() != nil {
		return nil, res.Err()
	}
	if len(les) != len(vs) {
		return nil, fmt.Errorf("compare: batch holds %d values, got %d result bits", len(vs), len(les))
	}
	return les, nil
}

// BatchLessEq is the Bob half of the Alice-side BatchLessEq.
func (b *MaskedBob) BatchLessEq(conn transport.Conn, vs []int64) ([]bool, error) {
	return b.runBatch(conn, vs, predLessEq)
}

// BatchLess is the Bob half of the Alice-side BatchLess.
func (b *MaskedBob) BatchLess(conn transport.Conn, vs []int64) ([]bool, error) {
	return b.runBatch(conn, vs, predLess)
}
