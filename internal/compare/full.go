package compare

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// Packed-uplink ("full" packing) wire forms for the masked-sign engine.
//
// "slots" packing compresses only the reply direction: the E(−a_t)
// uplink stays one ciphertext per instance, because every instance
// needs its own fresh multiplier r_t and sharing one r across a packed
// slot group would hand Alice the exact magnitude ratios of the
// differences. The full form keeps the per-instance masks and instead
// restructures the round so the masking happens on the homomorphic side
// *before* slot aggregation: Bob scales each instance's uplink
// ciphertext by its own r_t and folds the results into the packed
// reply, so no slot ever shares a multiplier.
//
// The slot shift and the sign ride in the uplink plaintext, not in Bob's
// exponent. Replies are laid out column by column (replyLayout): of
// G = ⌈n/S⌉ replies, instance t is slot s = ⌊t/G⌋ of reply t mod G.
// Every uplink ciphertext c — one per instance, or one per class of a
// grouped uplink — is a fresh encryption of its operand negated and
// pre-shifted to σ(c), the lowest slot of any instance of c:
// E(−a_c·2^{w·σ(c)}). Bob recomputes σ from the public layout and the
// class indices, never from the wire, and folds
// E(−a_c·2^{w·σ(c)})^{r_t·2^{w·d}} in at the relative slot
// d = s − σ(c) ≥ 0, which places −r_t·a_t into slot s. A reply's shared
// squaring chain then spans (max d)·w + κ+1 bits instead of
// (S−1)·w + κ+1 — one slot for a per-instance batch, at most ⌈L/G⌉+1
// for a batch of rows of L instances — and, every exponent being
// positive, no base is inverted. A non-unit uplink ciphertext, which no
// honest encryption is, Bob refuses with one batched check
// (paillier.CheckUnits) before he draws any mask. Negating and
// pre-shifting disclose nothing new: each uplink ciphertext is still one
// fresh encryption, by the owner of its key, per class, of a public
// bijection of the same operand, and every slot Alice decrypts is still
// r_t·(b′_t−a_t) + r′_t + bias for its own instance; only which reply
// and slot carries an instance changes. Derived-base batches have no
// uplink, so their σ is 0 and d = s; their folder builds each base
// negated, E(−a_t), so the exponent is r_t·2^{w·s} there too.
//
// What "full" packing shrinks is the set of base ciphertexts the uplink
// must carry.
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
//     instance's base E(−a_t) from ciphertexts he already retains (e.g.
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
}

// DerivedBob is the Bob half of DerivedAlice: base(t) returns E(−a_t),
// the ciphertext of instance t's left operand negated, under the peer's
// key — negated like an uplink operand, so the fold raises it by a
// positive mask. base must be safe for concurrent calls — the slot fold
// runs on the parallel Paillier pool.
type DerivedBob interface {
	BatchLessEqDerived(conn transport.Conn, bs []int64, base func(t int) (*big.Int, error)) ([]bool, error)
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

// ErrUplinkClass reports a grouped uplink ciphertext that no instance's
// class index names — one an honest Alice never sends, whose pre-shift σ
// is undefined.
var ErrUplinkClass = errors.New("compare: grouped uplink carries a ciphertext no instance names")

// replyLayout places the n instances of a masked batch in its G = ⌈n/S⌉
// packed replies column by column: instance t is slot ⌊t/G⌋ of reply
// t mod G. Bob's pack and fold and Alice's unpack all read it, so the
// two sides cannot disagree on where an instance travels.
type replyLayout struct{ n, groups int }

func newReplyLayout(pk *encoding.Packer, n int) replyLayout {
	return replyLayout{n: n, groups: pk.Groups(n)}
}

// slot returns instance t's slot; its reply is t mod G.
func (l replyLayout) slot(t int) int { return t / l.groups }

// members returns reply g's instances in slot order: g, g+G, g+2G, …
func (l replyLayout) members(g int) []int {
	ts := make([]int, 0, (l.n-g+l.groups-1)/l.groups)
	for t := g; t < l.n; t += l.groups {
		ts = append(ts, t)
	}
	return ts
}

// shifts returns σ(c) for each of k uplink ciphertexts — the lowest
// slot of any instance whose class is c: classIdx[t], or t itself when
// classIdx is nil (the per-instance uplink) — and lift[t] = σ of
// instance t's class, the slot its operand went up pre-shifted to. σ is
// defined only for a class some instance names, so k above n, or a
// ciphertext no index names, is ErrUplinkClass; class indices must
// already lie in [0, k).
func (l replyLayout) shifts(classIdx []int64, k int) (sigma, lift []int, err error) {
	if k > l.n {
		return nil, nil, fmt.Errorf("%w: %d ciphertexts for %d instances", ErrUplinkClass, k, l.n)
	}
	sigma = make([]int, k)
	for c := range sigma {
		sigma[c] = -1
	}
	lift = make([]int, l.n)
	for t := range lift {
		c := t
		if classIdx != nil {
			c = int(classIdx[t])
		}
		// Instances come in slot order, so a class's first is its lowest.
		if sigma[c] < 0 {
			sigma[c] = l.slot(t)
		}
		lift[t] = sigma[c]
	}
	for c, s := range sigma {
		if s < 0 {
			return nil, nil, fmt.Errorf("%w: ciphertext %d of %d", ErrUplinkClass, c, k)
		}
	}
	return sigma, lift, nil
}

// foldSlots files reply g's instances under the relative slots of its
// fold: instance t at slot s goes under d = s − lift[t], lift[t] being
// the slot its uplink operand was pre-shifted to (lift nil: none was, d
// = s). The fold's chain is (len−1)·w + κ+1 squarings long.
func (l replyLayout) foldSlots(g int, lift []int) [][]int {
	var ds [][]int
	for _, t := range l.members(g) {
		d := l.slot(t)
		if lift != nil {
			d -= lift[t]
		}
		for len(ds) <= d {
			ds = append(ds, nil)
		}
		ds[d] = append(ds[d], t)
	}
	return ds
}

// packedReplies builds the packed masked-difference reply ciphertexts
// in the column layout: reply g's plaintext term packs the values
// b′·r + r′ of its instances with the per-slot bias, then every
// instance t folds base(t)^{r_t·2^{w·d}} in at its relative slot d
// (foldSlots over lift) — every base, uplinked or derived, encrypts −a_t
// — so slot s of reply g decrypts to
// r_t·(b′_t−a_t) + r′_t + bias. The masks stay independent per
// instance; packing compresses the frame, never the masking.
func (b *MaskedBob) packedReplies(pk *encoding.Packer, n int, rMasks, plains []*big.Int, random io.Reader, base func(t int) (*big.Int, error), lift []int) ([]*big.Int, error) {
	l := newReplyLayout(pk, n)
	packedPlains := make([]*big.Int, l.groups)
	for g := range packedPlains {
		ts := l.members(g)
		vals := make([]*big.Int, len(ts))
		for s, t := range ts {
			vals[s] = plains[t]
		}
		packed, err := pk.Pack(vals)
		if err != nil {
			return nil, fmt.Errorf("compare: packing reply group %d: %w", g, err)
		}
		packedPlains[g] = packed
	}
	term2s, err := b.Pub.EncryptBatch(b.Pool, random, packedPlains)
	if err != nil {
		return nil, err
	}
	cts := make([]*big.Int, l.groups)
	if err := paillier.ParallelFor(b.Pool, l.groups, func(g int) error {
		ds := l.foldSlots(g, lift)
		slots := make([][]paillier.SlotTerm, len(ds))
		for d, ts := range ds {
			for _, t := range ts {
				ca, err := base(t)
				if err != nil {
					return err
				}
				slots[d] = append(slots[d], paillier.SlotTerm{Base: ca, Scalar: rMasks[t]})
			}
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
	l := newReplyLayout(pk, n)
	if len(replies) != l.groups {
		return nil, fmt.Errorf("compare: batch sent %d values, got %d packed replies (want %d)", n, len(replies), l.groups)
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
		ts := l.members(g)
		slots, err := pk.Unpack(pv, len(ts))
		if err != nil {
			return nil, fmt.Errorf("compare: packed reply %d: %w", g, err)
		}
		for s, ti := range slots {
			// t_i = r·(b′_i−a_i) + r′ with 0 ≤ r′ < r, so t_i ≥ 0 ⟺ a_i ≤ b′_i.
			les[ts[s]] = ti.Sign() >= 0
		}
	}
	return les, nil
}

// announceUplink writes the packed-uplink mode of a batch into Alice's
// frame and returns the operands to encrypt with their class indices:
// one per distinct operand of a row (modeGrouped, behind the
// per-instance class indices) when some row holds a repeat, else every
// instance (modePerInstance, classIdx nil), so "full" never costs more
// uplink ciphertexts than "slots". A class never spans two rows — see
// the leakage note above.
func announceUplink(msg *transport.Builder, vs []int64, rows []int) (operands, classIdx []int64) {
	type class struct {
		row int
		v   int64
	}
	classIdx = make([]int64, len(vs))
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
		return distinct, classIdx
	}
	// No repeats: grouping would only add the index frame.
	msg.PutUint(uint64(modePerInstance))
	return vs, nil
}

// uplinkBases resolves each of n instances' base ciphertext from the
// uplink Bob parsed — cas itself per instance (classIdx nil), or through
// the class indices of a grouped uplink — and lift[t], the slot instance
// t's base was pre-shifted to. Every check runs before any
// exponentiation.
func uplinkBases(l replyLayout, mode byte, classIdx []int64, cas []*big.Int) (base func(t int) (*big.Int, error), lift []int, err error) {
	switch mode {
	case modePerInstance:
		if len(cas) != l.n {
			return nil, nil, fmt.Errorf("compare: batch holds %d values, got %d ciphertexts", l.n, len(cas))
		}
		base = func(t int) (*big.Int, error) { return cas[t], nil }
	case modeGrouped:
		if len(classIdx) != l.n {
			return nil, nil, fmt.Errorf("compare: batch holds %d values, got %d class indices", l.n, len(classIdx))
		}
		for t, c := range classIdx {
			if c < 0 || c >= int64(len(cas)) {
				return nil, nil, fmt.Errorf("compare: batch[%d]: class index %d outside %d uplink ciphertexts", t, c, len(cas))
			}
		}
		base = func(t int) (*big.Int, error) { return cas[classIdx[t]], nil }
	default:
		return nil, nil, fmt.Errorf("compare: unknown packed-uplink mode %d", mode)
	}
	if _, lift, err = l.shifts(classIdx, len(cas)); err != nil {
		return nil, nil, err
	}
	return base, lift, nil
}

// runBatchDerived is the Alice side of a derived-base batch: no uplink
// ciphertexts at all — only the predicate, the mode, and the batch size
// go out, and the widened-slot packed replies come back.
func (a *MaskedAlice) runBatchDerived(conn transport.Conn, vs []int64) ([]bool, error) {
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
	msg := transport.NewBuilder().PutUint(uint64(predLessEq)).PutUint(uint64(modeDerived)).PutUint(uint64(len(vs)))
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, fmt.Errorf("compare: alice batch send: %w", err)
	}
	return a.finish(conn, a.UplinkPacker, len(vs))
}

// runBatchDerived is the Bob side of a derived-base batch: every
// instance's E(−a_t) comes from base(t) — ciphertexts Bob already holds
// — and the replies pack with the widened UplinkPacker because both
// operands may be signed differences.
func (b *MaskedBob) runBatchDerived(conn transport.Conn, vs []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
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
	if gotPred != predLessEq {
		return nil, fmt.Errorf("%w: alice=%d bob=%d", ErrPredicateMismatch, gotPred, predLessEq)
	}
	if mode != modeDerived {
		return nil, fmt.Errorf("compare: expected derived-base batch, got mode %d", mode)
	}
	if count != len(vs) {
		return nil, fmt.Errorf("compare: batch holds %d values, peer announced %d", len(vs), count)
	}
	rMasks, plains, err := b.sampleMasks(vs, predLessEq, b.Random)
	if err != nil {
		return nil, err
	}
	cts, err := b.packedReplies(b.UplinkPacker, len(vs), rMasks, plains, b.Random, base, nil)
	if err != nil {
		return nil, err
	}
	return b.reply(conn, cts, len(vs))
}

// BatchLessEqDerived decides a_t ≤ b_t with Bob-derived left operands,
// through the edge's round structure.
func (a *MaskedAlice) BatchLessEqDerived(conn transport.Conn, vs []int64) ([]bool, error) {
	return a.run(len(vs), func(lo, hi int) ([]bool, error) { return a.runBatchDerived(conn, vs[lo:hi]) })
}

// BatchLessEqDerived is the Bob half of the Alice-side BatchLessEqDerived:
// a sub-batch from lo reads base from lo.
func (b *MaskedBob) BatchLessEqDerived(conn transport.Conn, vs []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
	return b.run(len(vs), func(lo, hi int) ([]bool, error) {
		return b.runBatchDerived(conn, vs[lo:hi], func(t int) (*big.Int, error) { return base(lo + t) })
	})
}

var (
	_ DerivedAlice = (*MaskedAlice)(nil)
	_ DerivedBob   = (*MaskedBob)(nil)
)
