package compare

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync/atomic"

	"repro/internal/encoding"
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
// Both engines decide element-wise:
//
//   - YMPP: the batch frames carry `count` Algorithm 1 payloads
//     (internal/yao's one wire form); local cost is O(count·Bound) in
//     three rounds.
//   - Masked: Alice packs E(−a_1)…E(−a_count), each pre-shifted to its
//     reply slot, into one frame, Bob replies with the count masked
//     differences, S to a ciphertext (S = 1 under "off" packing) laid
//     out column by column (full.go), computed on the parallel Paillier
//     pool, and Alice returns the sign bits. O(count) ciphertexts in 3
//     frames, with all modular exponentiation spread over the engine's crypto pool (the
//     process-shared bounded pool on a multi-session server; paillier's
//     process-wide default for a solo run with a nil Pool).
//
// Under Edge.Sequential an engine runs a batch of k as k batches of one,
// in order (rounds.run): 3·k frames, the same decisions.
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

// rounds is what an engine takes from its Edge: the round structure and
// the instance count. Every batch entry point runs through run.
type rounds struct {
	sequential bool
	count      *atomic.Int64
}

// run decides an n-instance batch, where batch(lo, hi) decides instances
// [lo, hi) in one three-frame exchange: all n at once, or under
// sequential one at a time, in order. It counts n instances either way.
func (r rounds) run(n int, batch func(lo, hi int) ([]bool, error)) ([]bool, error) {
	tally(r.count, n)
	if !r.sequential {
		return batch(0, n)
	}
	bits := make([]bool, 0, n)
	for t := 0; t < n; t++ {
		one, err := batch(t, t+1)
		if err != nil {
			return nil, err
		}
		bits = append(bits, one...)
	}
	return bits, nil
}

// ---- YMPP engine ----

// BatchLessEq decides a_t ≤ b_t for the whole batch in three frames.
func (a *YMPPAlice) BatchLessEq(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.run(len(vs), func(lo, hi int) ([]bool, error) {
		return yao.AliceLessEqBatch(conn, a.Key, vs[lo:hi], a.Max, a.Random, a.Pool)
	})
}

// BatchLess decides a_t < b_t for the whole batch in three frames.
func (a *YMPPAlice) BatchLess(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.run(len(vs), func(lo, hi int) ([]bool, error) {
		return yao.AliceLessBatch(conn, a.Key, vs[lo:hi], a.Max, a.Random, a.Pool)
	})
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
	return b.run(len(vs), func(lo, hi int) ([]bool, error) {
		return yao.BobLessEqBatch(conn, b.Pub, vs[lo:hi], b.Max, b.Random)
	})
}

// BatchLess is the Bob half of the Alice-side BatchLess.
func (b *YMPPBob) BatchLess(conn transport.Conn, vs []int64) ([]bool, error) {
	return b.run(len(vs), func(lo, hi int) ([]bool, error) {
		return yao.BobLessBatch(conn, b.Pub, vs[lo:hi], b.Max, b.Random)
	})
}

// ---- Masked-sign engine ----

// runBatch is the Alice side of the batched masked-sign protocol: one
// frame of negated, pre-shifted E(−a_t·2^{w·σ}), one frame of packed masked
// differences back, one frame of result bits out. Under "full" packing
// (an UplinkPacker) the uplink frame announces its mode and may dedup
// operands row by row (full.go): rows, when non-nil, names each
// instance's row, nil is a one-row batch. That is the only form whose
// frames depend on equal operands, so the only one that reads rows.
func (a *MaskedAlice) runBatch(conn transport.Conn, vs []int64, rows []int, pred byte) ([]bool, error) {
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
	msg := transport.NewBuilder().PutUint(uint64(pred))
	operands, classIdx := vs, []int64(nil)
	if a.UplinkPacker != nil {
		operands, classIdx = announceUplink(msg, vs, rows)
	}
	// Each operand goes up negated and pre-shifted to the lowest reply
	// slot of its class (full.go), so Bob's fold need neither invert nor
	// shift it there.
	sigma, _, err := newReplyLayout(a.Packer, len(vs)).shifts(classIdx, len(operands))
	if err != nil {
		return nil, err
	}
	plains := make([]*big.Int, len(operands))
	for c, v := range operands {
		plains[c] = a.Packer.Shift(big.NewInt(-v), sigma[c])
	}
	cts, err := a.Key.EncryptBatch(a.Pool, random, plains)
	if err != nil {
		return nil, err
	}
	if err := transport.SendMsg(conn, msg.PutBigs(cts)); err != nil {
		return nil, fmt.Errorf("compare: alice batch send: %w", err)
	}
	tally(a.Sent, len(cts))
	return a.finish(conn, a.Packer, len(vs))
}

// finish is the last two frames of every masked form on Alice's side:
// read the packed replies, unpack the n sign bits under pk, send them.
func (a *MaskedAlice) finish(conn transport.Conn, pk *encoding.Packer, n int) ([]bool, error) {
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("compare: alice batch recv: %w", err)
	}
	replies := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	les, err := a.unpackReplies(pk, n, replies)
	if err != nil {
		return nil, err
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBools(les)); err != nil {
		return nil, fmt.Errorf("compare: alice batch send result: %w", err)
	}
	return les, nil
}

// batch runs a masked batch through the edge's round structure; rows,
// when non-nil, splits with it.
func (a *MaskedAlice) batch(conn transport.Conn, vs []int64, rows []int, pred byte) ([]bool, error) {
	if rows != nil && len(rows) != len(vs) {
		return nil, fmt.Errorf("compare: batch holds %d values in %d row entries", len(vs), len(rows))
	}
	return a.run(len(vs), func(lo, hi int) ([]bool, error) {
		if rows != nil {
			return a.runBatch(conn, vs[lo:hi], rows[lo:hi], pred)
		}
		return a.runBatch(conn, vs[lo:hi], nil, pred)
	})
}

// BatchLessEq decides a_t ≤ b_t for the whole batch in three frames.
func (a *MaskedAlice) BatchLessEq(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.batch(conn, vs, nil, predLessEq)
}

// BatchLess decides a_t < b_t for the whole batch in three frames.
func (a *MaskedAlice) BatchLess(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.batch(conn, vs, nil, predLess)
}

// BatchLessEqRows is BatchLessEq with the grouped uplink's dedup scoped
// to rows (full.go): rows[t] names instance t's row.
func (a *MaskedAlice) BatchLessEqRows(conn transport.Conn, vs []int64, rows []int) ([]bool, error) {
	return a.batch(conn, vs, rows, predLessEq)
}

// BatchLessRows is the strict variant of BatchLessEqRows.
func (a *MaskedAlice) BatchLessRows(conn transport.Conn, vs []int64, rows []int) ([]bool, error) {
	return a.batch(conn, vs, rows, predLess)
}

// runBatch is the Bob side of the batched masked-sign protocol: parse the
// uplink (under "full" packing, the mode Alice chose for it), resolve each
// instance's base ciphertext, and fold the per-instance masks into the
// packed replies. Mask sampling is sequential (the configured reader need
// not be goroutine-safe); the homomorphic arithmetic runs on the parallel
// Paillier pool.
func (b *MaskedBob) runBatch(conn transport.Conn, vs []int64, pred byte) ([]bool, error) {
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
	mode := modePerInstance
	if b.UplinkPacker != nil {
		mode = byte(r.Uint())
	}
	var classIdx []int64
	if mode == modeGrouped {
		classIdx = r.Ints()
	}
	cas := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if gotPred != pred {
		return nil, fmt.Errorf("%w: alice=%d bob=%d", ErrPredicateMismatch, gotPred, pred)
	}
	base, lift, err := uplinkBases(newReplyLayout(b.Packer, len(vs)), mode, classIdx, cas)
	if err != nil {
		return nil, err
	}
	// The fold raises every uplink base to a positive r_t and never
	// inverts, so a base no honest encryption produces — a non-unit — is
	// refused here, before any mask or nonce is drawn.
	if err := b.Pub.CheckUnits(cas); err != nil {
		return nil, fmt.Errorf("compare: uplink: %w", err)
	}
	rMasks, plains, err := b.sampleMasks(vs, pred, random)
	if err != nil {
		return nil, err
	}
	cts, err := b.packedReplies(b.Packer, len(vs), rMasks, plains, random, base, lift)
	if err != nil {
		return nil, err
	}
	return b.reply(conn, cts, len(vs))
}

// reply is the last two frames of every masked form on Bob's side: send
// the packed replies, read Alice's n result bits.
func (b *MaskedBob) reply(conn transport.Conn, cts []*big.Int, n int) ([]bool, error) {
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBigs(cts)); err != nil {
		return nil, fmt.Errorf("compare: bob batch send: %w", err)
	}
	tally(b.Sent, len(cts))
	res, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("compare: bob batch recv result: %w", err)
	}
	les := res.Bools()
	if res.Err() != nil {
		return nil, res.Err()
	}
	if len(les) != n {
		return nil, fmt.Errorf("compare: batch holds %d values, got %d result bits", n, len(les))
	}
	return les, nil
}

// batch runs a masked batch through the edge's round structure.
func (b *MaskedBob) batch(conn transport.Conn, vs []int64, pred byte) ([]bool, error) {
	return b.run(len(vs), func(lo, hi int) ([]bool, error) { return b.runBatch(conn, vs[lo:hi], pred) })
}

// BatchLessEq is the Bob half of the Alice-side BatchLessEq.
func (b *MaskedBob) BatchLessEq(conn transport.Conn, vs []int64) ([]bool, error) {
	return b.batch(conn, vs, predLessEq)
}

// BatchLess is the Bob half of the Alice-side BatchLess.
func (b *MaskedBob) BatchLess(conn transport.Conn, vs []int64) ([]bool, error) {
	return b.batch(conn, vs, predLess)
}
