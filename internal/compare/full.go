package compare

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// Packed-uplink ("full" packing) wire forms for the masked-sign engine.
//
// "slots" packing compresses only the reply direction: the E(a_t)
// uplink stays one ciphertext per instance, because every instance
// needs its own fresh multiplier r_t and sharing one r across a packed
// slot group would hand Alice the exact magnitude ratios of the
// differences. The full form keeps the per-instance masks and instead
// restructures the round so the masking happens on the homomorphic side
// *before* slot aggregation: Bob scales each instance's E(a_t) by its
// own −r_t shifted into its slot (E(a_t)^{−r_t·2^{w·s}}) and folds the
// results into the packed reply, so no slot ever shares a multiplier.
// What shrinks is the set of base ciphertexts that uplink must carry.
// Alice chooses per batch between three modes, announced by a mode byte
// after the predicate byte:
//
//   - modePerInstance: one uplink ciphertext per instance,
//     wire-identical to "slots" packing after the mode byte. Chosen
//     when the batch has no repeated operands, so "full" is never
//     costlier in ciphertexts than "slots".
//   - modeGrouped: the batch dedups — one uplink ciphertext per
//     *distinct* operand of a row plus a plain per-instance class index;
//     Bob folds cas[classIdx[t]] with instance t's own r_t. Chosen
//     whenever some row of the batch holds at least one repeat.
//   - modeDerived: zero uplink ciphertexts. Bob derives every
//     instance's base E(a_t) from ciphertexts he already retains (e.g.
//     differences of the dot-product ciphertexts he computed for an
//     earlier round), supplied by the caller as a base function. Only
//     reachable through the explicit Derived entry points, because the
//     base material is protocol state the engine cannot know about.
//
// Leakage note: modeGrouped discloses a value-equality pattern (which
// instances share an operand) to Bob — not the values, only the
// partition. Like the engine's masked magnitude-bits leakage this is an
// engine-level disclosure documented here rather than a Ledger class: it
// reveals structure of the querying side's own batch, chosen by the
// querying side, never anything about the peer's data.
//
// The scope of that pattern is a row, never the batch. A plain
// BatchLess / BatchLessEq call is one row: one region query's candidates,
// one neighbourhood. The lockstep driver (core.LockstepCluster) packs
// many neighbourhoods into one batch and names each instance's row
// through BatchLessRows / BatchLessEqRows; classes are keyed by
// (row, value), so two instances in different rows never share a class
// however equal their operands, and Bob learns exactly the within-one-
// neighbourhood partitions he learned when every neighbourhood was its
// own batch. Dedup over the whole batch would save a few ciphertexts
// and must not be done: a lockstep operand is one party's partial
// squared distance between two records, and the equalities of those
// across all rows — |x_i − x_j| = |x_k − x_l| for every such quadruple —
// pin a one-column party's whole column down to an affine map, where the
// per-row pattern only says which records are equidistant from one.
// Derived-base batches operate on *signed* operands (differences), so
// their replies pack with the widened UplinkPacker
// (encoding.NewUplinkComparePacker) while grouped and per-instance
// replies keep the ordinary reply Packer.

// Packed-uplink wire modes, announced by Alice after the predicate byte.
const (
	modePerInstance byte = 1
	modeGrouped     byte = 2
	modeDerived     byte = 3
)

// DerivedAlice is implemented by Alice-side engines that can decide
// batches whose left operands Bob reconstructs homomorphically from
// retained ciphertexts. The values are passed for range validation and
// batch sizing only — no ciphertext of them goes on the wire.
type DerivedAlice interface {
	BatchLessEqDerived(conn transport.Conn, as []int64) ([]bool, error)
	BatchLessDerived(conn transport.Conn, as []int64) ([]bool, error)
}

// DerivedBob is the Bob half of DerivedAlice: base(t) returns the
// ciphertext of instance t's left operand under the peer's key. base
// must be safe for concurrent calls — the slot fold runs on the
// parallel Paillier pool.
type DerivedBob interface {
	BatchLessEqDerived(conn transport.Conn, bs []int64, base func(t int) (*big.Int, error)) ([]bool, error)
	BatchLessDerived(conn transport.Conn, bs []int64, base func(t int) (*big.Int, error)) ([]bool, error)
}

// checkInputSigned admits the signed operand range of derived batches.
func checkInputSigned(v, bound int64) error {
	if v < -bound || v > bound {
		return fmt.Errorf("compare: input %d outside [−%d,%d]", v, bound, bound)
	}
	return nil
}

// sampleMasks draws the per-instance masks sequentially (the configured
// reader need not be goroutine-safe): r ∈ [1, 2^κ], r′ ∈ [0, r), and
// plains[t] = b′_t·r_t + r′_t with b′_t the predicate-shifted operand,
// so that t = r·(b′−a) + r′ keeps sign(b′−a).
func (b *MaskedBob) sampleMasks(vs []int64, pred byte, random io.Reader) (rMasks, plains []*big.Int, err error) {
	maskBits := b.MaskBits
	if maskBits <= 0 {
		maskBits = DefaultMaskBits
	}
	maskSpace := new(big.Int).Lsh(big.NewInt(1), uint(maskBits))
	rMasks = make([]*big.Int, len(vs))
	plains = make([]*big.Int, len(vs))
	for t, v := range vs {
		bVal := v
		if pred == predLess {
			// a < b ⟺ a ≤ b−1.
			bVal = v - 1
		}
		rMask, err := rand.Int(random, maskSpace)
		if err != nil {
			return nil, nil, err
		}
		rMask.Add(rMask, big.NewInt(1))
		rPrime, err := rand.Int(random, rMask)
		if err != nil {
			return nil, nil, err
		}
		rMasks[t] = rMask
		plain := new(big.Int).Mul(big.NewInt(bVal), rMask)
		plain.Add(plain, rPrime)
		plains[t] = plain
	}
	return rMasks, plains, nil
}

// packedReplies builds the packed masked-difference reply ciphertexts:
// group g's plaintext term packs the S values b′·r + r′ with the
// per-slot bias, then every slot s folds base(t)^{−r_t·2^{w·s}} in, so
// slot s of group g decrypts to r_t·(b′_t−a_t) + r′_t + bias. The
// masks stay independent per instance; packing compresses the frame,
// never the masking.
func (b *MaskedBob) packedReplies(pk *encoding.Packer, n int, rMasks, plains []*big.Int, random io.Reader, base func(t int) (*big.Int, error)) ([]*big.Int, error) {
	groups := pk.Groups(n)
	packedPlains := make([]*big.Int, groups)
	for g := range packedPlains {
		m := pk.GroupLen(n, g)
		packed, err := pk.Pack(plains[g*pk.Slots() : g*pk.Slots()+m])
		if err != nil {
			return nil, fmt.Errorf("compare: packing reply group %d: %w", g, err)
		}
		packedPlains[g] = packed
	}
	term2s, err := b.Pub.EncryptBatch(b.Pool, random, packedPlains)
	if err != nil {
		return nil, err
	}
	cts := make([]*big.Int, groups)
	if err := paillier.ParallelFor(b.Pool, groups, func(g int) error {
		// E(a_t)^(−r_t·2^{w·s}) places −r_t·a_t into slot s.
		slots := make([][]paillier.SlotTerm, pk.GroupLen(n, g))
		for s := range slots {
			t := g*pk.Slots() + s
			ca, err := base(t)
			if err != nil {
				return err
			}
			slots[s] = []paillier.SlotTerm{{Base: ca, Scalar: new(big.Int).Neg(rMasks[t])}}
		}
		ct, err := b.Pub.SlotFold(term2s[g], pk.Width(), slots)
		if err != nil {
			return fmt.Errorf("compare: folding reply group %d: %w", g, err)
		}
		cts[g] = ct
		return nil
	}); err != nil {
		return nil, err
	}
	return cts, nil
}

// unpackReplies decrypts and unpacks a packed reply frame into the
// per-instance sign bits.
func (a *MaskedAlice) unpackReplies(pk *encoding.Packer, n int, replies []*big.Int) ([]bool, error) {
	if groups := pk.Groups(n); len(replies) != groups {
		return nil, fmt.Errorf("compare: batch sent %d values, got %d packed replies (want %d)", n, len(replies), groups)
	}
	// The packed value is non-negative by construction (< n/2), so
	// plain decryption applies; Unpack removes the bias and restores
	// each difference's sign.
	packed, err := a.Key.DecryptBatch(a.Pool, replies)
	if err != nil {
		return nil, err
	}
	les := make([]bool, n)
	for g, pv := range packed {
		slots, err := pk.Unpack(pv, pk.GroupLen(n, g))
		if err != nil {
			return nil, fmt.Errorf("compare: packed reply %d: %w", g, err)
		}
		for s, ti := range slots {
			// t_i = r·(b′_i−a_i) + r′ with 0 ≤ r′ < r, so t_i ≥ 0 ⟺ a_i ≤ b′_i.
			les[g*pk.Slots()+s] = ti.Sign() >= 0
		}
	}
	return les, nil
}

// announceUplink writes the packed-uplink mode of a batch into Alice's
// frame and returns the operands to encrypt: one per distinct operand of
// a row (modeGrouped, behind the per-instance class indices) when some row
// holds a repeat, else every instance (modePerInstance), so "full" never
// costs more uplink ciphertexts than "slots". A class never spans two
// rows — see the leakage note above.
func announceUplink(msg *transport.Builder, vs []int64, rows []int) []int64 {
	type class struct {
		row int
		v   int64
	}
	classIdx := make([]int64, len(vs))
	classOf := make(map[class]int, len(vs))
	var distinct []int64
	for t, v := range vs {
		k := class{v: v}
		if rows != nil {
			k.row = rows[t]
		}
		c, ok := classOf[k]
		if !ok {
			c = len(distinct)
			classOf[k] = c
			distinct = append(distinct, v)
		}
		classIdx[t] = int64(c)
	}
	if len(distinct) < len(vs) {
		msg.PutUint(uint64(modeGrouped)).PutInts(classIdx)
		return distinct
	}
	// No repeats: grouping would only add the index frame.
	msg.PutUint(uint64(modePerInstance))
	return vs
}

// uplinkBases resolves each of n instances' base ciphertext from the
// uplink Bob parsed: cas itself per instance, or through the class
// indices of a grouped uplink.
func uplinkBases(mode byte, classIdx []int64, cas []*big.Int, n int) (func(t int) (*big.Int, error), error) {
	switch mode {
	case modePerInstance:
		if len(cas) != n {
			return nil, fmt.Errorf("compare: batch holds %d values, got %d ciphertexts", n, len(cas))
		}
		return func(t int) (*big.Int, error) { return cas[t], nil }, nil
	case modeGrouped:
		if len(classIdx) != n {
			return nil, fmt.Errorf("compare: batch holds %d values, got %d class indices", n, len(classIdx))
		}
		for t, c := range classIdx {
			if c < 0 || c >= int64(len(cas)) {
				return nil, fmt.Errorf("compare: batch[%d]: class index %d outside %d uplink ciphertexts", t, c, len(cas))
			}
		}
		return func(t int) (*big.Int, error) { return cas[classIdx[t]], nil }, nil
	}
	return nil, fmt.Errorf("compare: unknown packed-uplink mode %d", mode)
}

// runBatchDerived is the Alice side of a derived-base batch: no uplink
// ciphertexts at all — only the predicate, the mode, and the batch size
// go out, and the widened-slot packed replies come back.
func (a *MaskedAlice) runBatchDerived(conn transport.Conn, vs []int64, pred byte) ([]bool, error) {
	for t, v := range vs {
		if err := checkInputSigned(v, a.Max); err != nil {
			return nil, fmt.Errorf("compare: batch[%d]: %w", t, err)
		}
	}
	if len(vs) == 0 {
		return nil, nil
	}
	if a.UplinkPacker == nil {
		return nil, fmt.Errorf("compare: derived comparisons need full packing")
	}
	msg := transport.NewBuilder().PutUint(uint64(pred)).PutUint(uint64(modeDerived)).PutUint(uint64(len(vs)))
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, fmt.Errorf("compare: alice batch send: %w", err)
	}
	return a.finish(conn, a.UplinkPacker, len(vs))
}

// runBatchDerived is the Bob side of a derived-base batch: every
// instance's E(a_t) comes from base(t) — ciphertexts Bob already holds
// — and the replies pack with the widened UplinkPacker because both
// operands may be signed differences.
func (b *MaskedBob) runBatchDerived(conn transport.Conn, vs []int64, base func(t int) (*big.Int, error), pred byte) ([]bool, error) {
	for t, v := range vs {
		if err := checkInputSigned(v, b.Max); err != nil {
			return nil, fmt.Errorf("compare: batch[%d]: %w", t, err)
		}
	}
	if len(vs) == 0 {
		return nil, nil
	}
	if b.UplinkPacker == nil {
		return nil, fmt.Errorf("compare: derived comparisons need full packing")
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
	mode := byte(r.Uint())
	count := int(r.Uint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if gotPred != pred {
		return nil, fmt.Errorf("%w: alice=%d bob=%d", ErrPredicateMismatch, gotPred, pred)
	}
	if mode != modeDerived {
		return nil, fmt.Errorf("compare: expected derived-base batch, got mode %d", mode)
	}
	if count != len(vs) {
		return nil, fmt.Errorf("compare: batch holds %d values, peer announced %d", len(vs), count)
	}
	rMasks, plains, err := b.sampleMasks(vs, pred, random)
	if err != nil {
		return nil, err
	}
	cts, err := b.packedReplies(b.UplinkPacker, len(vs), rMasks, plains, random, base)
	if err != nil {
		return nil, err
	}
	return b.reply(conn, cts, len(vs))
}

// BatchLessEqDerived decides a_t ≤ b_t with Bob-derived left operands.
func (a *MaskedAlice) BatchLessEqDerived(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.runBatchDerived(conn, vs, predLessEq)
}

// BatchLessDerived decides a_t < b_t with Bob-derived left operands.
func (a *MaskedAlice) BatchLessDerived(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.runBatchDerived(conn, vs, predLess)
}

// BatchLessEqDerived is the Bob half of the Alice-side BatchLessEqDerived.
func (b *MaskedBob) BatchLessEqDerived(conn transport.Conn, vs []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
	return b.runBatchDerived(conn, vs, base, predLessEq)
}

// BatchLessDerived is the Bob half of the Alice-side BatchLessDerived.
func (b *MaskedBob) BatchLessDerived(conn transport.Conn, vs []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
	return b.runBatchDerived(conn, vs, base, predLess)
}

var (
	_ DerivedAlice = (*MaskedAlice)(nil)
	_ DerivedBob   = (*MaskedBob)(nil)
)
