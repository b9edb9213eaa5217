package mpc

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// Slot-packed wire forms of the Multiplication Protocol. Four shapes
// cover every product phase in the repository; all preserve the scalar
// semantics element-for-element (the mpc tests check each against the
// unpacked forms above or against plaintext, S = 1 included):
//
//   - Grid: the paper's masked HDP round — a rows×cols grid of products
//     where the sender's scalar y_k is constant down each column (the
//     query point's k-th coordinate against every candidate). Core runs
//     HDP as the row-dot form below; the grid serves the bench's
//     product probe and core's per-query test oracle. The receiver
//     packs column k across slot groups of rows, so the homomorphic
//     scalar multiplication by y_k acts on all S slots at once and BOTH
//     directions shrink from rows·cols to ⌈rows/S⌉·cols ciphertexts.
//
//   - Scatter: arbitrary per-element scalars (the arbitrary family's
//     mixed cross terms). A constant cannot multiply S different slots
//     by S different scalars, so the uplink stays one ciphertext per
//     element; the sender instead *places* each product into its slot —
//     E(x_t)^{y_t·2^{w·s}} — and multiplies S placements plus one
//     packed-mask encryption into a single reply. The reply direction
//     shrinks from n to ⌈n/S⌉ ciphertexts.
//
//   - DotRows: the §5 pattern, many queries at once — each row's m+2
//     uplink ciphertexts of E(a) are shared across all of that row's
//     points, and the per-point replies E(a·b_i + v_i) pack by slot
//     placement like the scatter form, across rows: Σcount replies
//     become ⌈Σcount/S⌉.
//
//   - RowDot: the settled HDP layout (core's chunk exchange at every
//     packing, at S = 1 under "off") — many grids at once, one per row,
//     each with its own column scalars, where the receiver is owed only
//     each instance's dot product Σ_k x_{i,k}·y_k. The uplink is the grid
//     form's, row by row (⌈T_row/S⌉·cols ciphertexts); the sender folds a
//     row's cols column ciphertexts, each raised to its scalar, into that
//     row's slot offset
//     of reply ciphertexts shared by all rows, so slot s decrypts to the
//     exact dot product: no masks (the grid form's zero-sum masks cancel
//     in exactly this sum, which is all its receiver keeps), one nonce
//     per reply, and a slot as narrow as the largest dot product. Where
//     each instance lands is RowLayout, a pure function of the row
//     lengths and S that both ends compute.
//
// In every form exactly one side contributes the packer's bias (with
// the masks, or alone in the row-dot form), the uplink packs raw
// (bias-free) values, and the slot width budgets the largest final
// value |x·y + v| — see the encoding package for why carries cannot
// occur.

// ReceiverGridMultiply is the packed form of ReceiverBatchMultiply for
// a rows×cols grid laid out row-major (xs[i·cols+k] is row i, column k)
// whose sender scalars are constant per column. It obtains the same
// u_{i,k} = x_{i,k}·y_k + v_{i,k} as the unpacked form, in
// ⌈rows/S⌉·cols ciphertexts each way.
func ReceiverGridMultiply(conn transport.Conn, key *paillier.PrivateKey, xs []int64, rows, cols int, pk *encoding.Packer, random io.Reader, pool *paillier.Pool) ([]*big.Int, error) {
	if rows < 1 || cols < 1 || rows*cols != len(xs) {
		return nil, fmt.Errorf("mpc: grid %d×%d does not hold %d values", rows, cols, len(xs))
	}
	if random == nil {
		random = rand.Reader
	}
	groups := pk.Groups(rows)
	plains := make([]*big.Int, groups*cols)
	for g := 0; g < groups; g++ {
		n := pk.GroupLen(rows, g)
		for k := 0; k < cols; k++ {
			vals := make([]*big.Int, n)
			for s := 0; s < n; s++ {
				vals[s] = big.NewInt(xs[(g*pk.Slots()+s)*cols+k])
			}
			// Raw (bias-free): the sender's packed masks carry the bias.
			packed, err := pk.PackRaw(vals)
			if err != nil {
				return nil, fmt.Errorf("mpc: packing grid column %d group %d: %w", k, g, err)
			}
			plains[g*cols+k] = packed
		}
	}
	cts, err := key.EncryptBatch(pool, random, plains)
	if err != nil {
		return nil, fmt.Errorf("mpc: encrypting packed xs: %w", err)
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBigs(cts)); err != nil {
		return nil, fmt.Errorf("mpc: packed receiver send: %w", err)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("mpc: packed receiver recv: %w", err)
	}
	replies := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(replies) != groups*cols {
		return nil, fmt.Errorf("%w: sent %d packed, got %d", ErrLengthMismatch, groups*cols, len(replies))
	}
	packedUs, err := key.DecryptBatch(pool, replies)
	if err != nil {
		return nil, fmt.Errorf("mpc: decrypting packed us: %w", err)
	}
	us := make([]*big.Int, rows*cols)
	for g := 0; g < groups; g++ {
		n := pk.GroupLen(rows, g)
		for k := 0; k < cols; k++ {
			slots, err := pk.Unpack(packedUs[g*cols+k], n)
			if err != nil {
				return nil, fmt.Errorf("mpc: unpacking grid column %d group %d: %w", k, g, err)
			}
			for s, u := range slots {
				us[(g*pk.Slots()+s)*cols+k] = u
			}
		}
	}
	return us, nil
}

// SenderGridMultiply is the sending half of ReceiverGridMultiply: ys
// holds the cols column scalars, vs the rows·cols row-major masks.
func SenderGridMultiply(conn transport.Conn, pub *paillier.PublicKey, ys []int64, vs []*big.Int, rows, cols int, pk *encoding.Packer, random io.Reader, pool *paillier.Pool) error {
	if len(ys) != cols {
		return fmt.Errorf("%w: %d column scalars for %d columns", ErrLengthMismatch, len(ys), cols)
	}
	if rows < 1 || cols < 1 || rows*cols != len(vs) {
		return fmt.Errorf("mpc: grid %d×%d does not hold %d masks", rows, cols, len(vs))
	}
	if random == nil {
		random = rand.Reader
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return fmt.Errorf("mpc: packed sender recv: %w", err)
	}
	cts := r.Bigs()
	if r.Err() != nil {
		return r.Err()
	}
	groups := pk.Groups(rows)
	if len(cts) != groups*cols {
		return fmt.Errorf("%w: received %d packed, expect %d", ErrLengthMismatch, len(cts), groups*cols)
	}
	// Masks pack with the bias — the one bias contribution per slot.
	maskPlains := make([]*big.Int, groups*cols)
	for g := 0; g < groups; g++ {
		n := pk.GroupLen(rows, g)
		for k := 0; k < cols; k++ {
			vals := make([]*big.Int, n)
			for s := 0; s < n; s++ {
				vals[s] = vs[(g*pk.Slots()+s)*cols+k]
			}
			packed, err := pk.Pack(vals)
			if err != nil {
				return fmt.Errorf("mpc: packing masks column %d group %d: %w", k, g, err)
			}
			maskPlains[g*cols+k] = packed
		}
	}
	masks, err := pub.EncryptBatch(pool, random, maskPlains)
	if err != nil {
		return fmt.Errorf("mpc: encrypting packed masks: %w", err)
	}
	replies := make([]*big.Int, groups*cols)
	if err := paillier.ParallelFor(pool, groups*cols, func(j int) error {
		// One scalar multiplication scales all S slots of the column by
		// y_k; the packed mask then biases and masks every slot.
		prod, err := pub.Mul(cts[j], big.NewInt(ys[j%cols]))
		if err != nil {
			return fmt.Errorf("mpc: packed homomorphic multiply [%d]: %w", j, err)
		}
		u, err := pub.Add(prod, masks[j])
		if err != nil {
			return fmt.Errorf("mpc: packed homomorphic add [%d]: %w", j, err)
		}
		replies[j] = u
		return nil
	}); err != nil {
		return err
	}
	return transport.SendMsg(conn, transport.NewBuilder().PutBigs(replies))
}

// ReceiverScatterMultiply is the packed form of ReceiverBatchMultiply
// for arbitrary per-element sender scalars: the uplink stays one
// ciphertext per element (a packed uplink would force one shared scalar
// per slot group), the replies arrive packed as ⌈n/S⌉ ciphertexts.
func ReceiverScatterMultiply(conn transport.Conn, key *paillier.PrivateKey, xs []int64, pk *encoding.Packer, random io.Reader, pool *paillier.Pool) ([]*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	cts, err := key.EncryptInt64Batch(pool, random, xs)
	if err != nil {
		return nil, fmt.Errorf("mpc: encrypting xs: %w", err)
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBigs(cts)); err != nil {
		return nil, fmt.Errorf("mpc: scatter receiver send: %w", err)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("mpc: scatter receiver recv: %w", err)
	}
	replies := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	groups := pk.Groups(len(xs))
	if len(replies) != groups {
		return nil, fmt.Errorf("%w: sent %d, got %d packed replies (want %d)", ErrLengthMismatch, len(xs), len(replies), groups)
	}
	packedUs, err := key.DecryptBatch(pool, replies)
	if err != nil {
		return nil, fmt.Errorf("mpc: decrypting packed us: %w", err)
	}
	us := make([]*big.Int, len(xs))
	for g, pv := range packedUs {
		slots, err := pk.Unpack(pv, pk.GroupLen(len(xs), g))
		if err != nil {
			return nil, fmt.Errorf("mpc: unpacking reply group %d: %w", g, err)
		}
		for s, u := range slots {
			us[g*pk.Slots()+s] = u
		}
	}
	return us, nil
}

// SenderScatterMultiply is the sending half of ReceiverScatterMultiply:
// E(x_t)^{y_t·2^{w·s}} places x_t·y_t into slot s of its group's reply,
// and one packed-mask encryption supplies every slot's v_t and bias.
func SenderScatterMultiply(conn transport.Conn, pub *paillier.PublicKey, ys []int64, vs []*big.Int, pk *encoding.Packer, random io.Reader, pool *paillier.Pool) error {
	if len(ys) != len(vs) {
		return fmt.Errorf("%w: %d multiplicands, %d masks", ErrLengthMismatch, len(ys), len(vs))
	}
	if random == nil {
		random = rand.Reader
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return fmt.Errorf("mpc: scatter sender recv: %w", err)
	}
	cts := r.Bigs()
	if r.Err() != nil {
		return r.Err()
	}
	if len(cts) != len(ys) {
		return fmt.Errorf("%w: received %d, hold %d", ErrLengthMismatch, len(cts), len(ys))
	}
	groups := pk.Groups(len(ys))
	maskPlains := make([]*big.Int, groups)
	for g := range maskPlains {
		n := pk.GroupLen(len(ys), g)
		packed, err := pk.Pack(vs[g*pk.Slots() : g*pk.Slots()+n])
		if err != nil {
			return fmt.Errorf("mpc: packing masks group %d: %w", g, err)
		}
		maskPlains[g] = packed
	}
	masks, err := pub.EncryptBatch(pool, random, maskPlains)
	if err != nil {
		return fmt.Errorf("mpc: encrypting packed masks: %w", err)
	}
	replies := make([]*big.Int, groups)
	if err := paillier.ParallelFor(pool, groups, func(g int) error {
		slots := make([][]paillier.SlotTerm, pk.GroupLen(len(ys), g))
		for s := range slots {
			t := g*pk.Slots() + s
			// A zero y_t folds nothing in: the slot keeps v_t + bias.
			slots[s] = []paillier.SlotTerm{{Base: cts[t], Scalar: big.NewInt(ys[t])}}
		}
		acc, err := pub.SlotFold(masks[g], pk.Width(), slots)
		if err != nil {
			return fmt.Errorf("mpc: scatter fold group %d: %w", g, err)
		}
		replies[g] = acc
		return nil
	}); err != nil {
		return err
	}
	return transport.SendMsg(conn, transport.NewBuilder().PutBigs(replies))
}

// ReceiverDotRows is the receiving half of the §5 share exchange over many
// query vectors at once: row r's vector as[r] goes up once, its len(as[r])
// ciphertexts shared by all of the row's counts[r] sender points, and the
// masked dot products u = as[r]·b + v come back, rows concatenated in
// order. The replies pack across rows under pk — slot s of reply g is
// instance g·S + s of the flat order, ⌈Σcounts/S⌉ ciphertexts; at S = 1
// (encoding.Packer.OneSlot) every instance is one ciphertext. A single row
// is the shape of ReceiverDotMany.
func ReceiverDotRows(conn transport.Conn, key *paillier.PrivateKey, as [][]int64, counts []int, pk *encoding.Packer, random io.Reader, pool *paillier.Pool) ([]*big.Int, error) {
	_, total := rowOffsets(counts)
	if len(as) != len(counts) || total < 1 {
		return nil, fmt.Errorf("mpc: %d query vectors for %d rows of %d dot products", len(as), len(counts), total)
	}
	if random == nil {
		random = rand.Reader
	}
	var flat []int64
	for _, a := range as {
		if len(a) != len(as[0]) {
			return nil, fmt.Errorf("%w: query vectors of %d and %d coordinates", ErrLengthMismatch, len(as[0]), len(a))
		}
		flat = append(flat, a...)
	}
	cts, err := key.EncryptInt64Batch(pool, random, flat)
	if err != nil {
		return nil, fmt.Errorf("mpc: encrypting query vectors: %w", err)
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutUint(uint64(total)).PutBigs(cts)); err != nil {
		return nil, fmt.Errorf("mpc: dot rows send: %w", err)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("mpc: dot rows recv: %w", err)
	}
	replies := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if groups := pk.Groups(total); len(replies) != groups {
		return nil, fmt.Errorf("%w: want %d packed dot products, got %d", ErrLengthMismatch, groups, len(replies))
	}
	packedUs, err := key.DecryptBatch(pool, replies)
	if err != nil {
		return nil, fmt.Errorf("mpc: decrypting packed us: %w", err)
	}
	us := make([]*big.Int, 0, total)
	for g, pv := range packedUs {
		slots, err := pk.Unpack(pv, pk.GroupLen(total, g))
		if err != nil {
			return nil, fmt.Errorf("mpc: unpacking dot group %d: %w", g, err)
		}
		us = append(us, slots...)
	}
	return us, nil
}

// SenderDotRows is the sending half of ReceiverDotRows: bs[t] is instance
// t's vector and vs[t] its mask, instances in row order, rowLens the row
// lengths. Instance t's product folds its own row's uplink ciphertexts:
// reply g starts as one encryption of its slots' packed masks and bias,
// and slot s folds in Π_k E(a_k)^{b_tk·2^{w·s}} for t = g·S + s.
//
// retain returns the per-instance dot ciphertexts D_t =
// g^{v_t}·Π_k E(a_k)^{b_tk}, ciphertexts of a·b_t + v_t, for the derived
// comparisons that follow (compare.DerivedBob), and builds the replies from
// them instead — reply g is E(Pack(0…0))·Π_s D_{g·S+s}^{2^{w·s}}, the
// bias-only encryption supplying every slot's bias — which the receiver
// cannot tell apart. The masks enter the D_t unblinded (paillier.Unblinded,
// one multiplication), so a D_t's nonce is a fixed function of the nonces
// the receiver chose for its uplink. That is sound only because no D_t, and
// nothing computed from D_t alone, goes on the wire: the bias encryptions
// here and the packed mask terms of compare's derived replies each carry a
// fresh uniform nonce, which makes every sent ciphertext's nonce uniform and
// independent of the D_t (the argument is in the paillier package comment).
// A caller that wants to send a D_t must Randomize it first.
func SenderDotRows(conn transport.Conn, pub *paillier.PublicKey, bs [][]int64, rowLens []int, vs []*big.Int, pk *encoding.Packer, retain bool, random io.Reader, pool *paillier.Pool) ([]*big.Int, error) {
	offs, total := rowOffsets(rowLens)
	if total < 1 || total != len(bs) || len(bs) != len(vs) {
		return nil, fmt.Errorf("mpc: %d vectors and %d masks for rows of %d instances", len(bs), len(vs), total)
	}
	if random == nil {
		random = rand.Reader
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("mpc: dot rows sender recv: %w", err)
	}
	count := int(r.Uint())
	cts := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	cols := len(cts) / len(rowLens)
	if count != total || cols*len(rowLens) != len(cts) {
		return nil, fmt.Errorf("%w: receiver expects %d dot products over %d ciphertexts, sender holds %d in %d rows", ErrLengthMismatch, count, len(cts), total, len(rowLens))
	}
	terms := make([][]paillier.SlotTerm, total)
	for row, off := range offs {
		for t := off; t < off+rowLens[row]; t++ {
			if len(bs[t]) != cols {
				return nil, fmt.Errorf("%w: vector %d has %d coordinates, receiver sent %d", ErrLengthMismatch, t, len(bs[t]), cols)
			}
			terms[t] = dotTerms(cts[row*cols:(row+1)*cols], bs[t])
		}
	}
	var ds []*big.Int
	if retain {
		ds = make([]*big.Int, total)
		if err := paillier.ParallelFor(pool, total, func(t int) error {
			gv, err := pub.Unblinded(vs[t])
			if err == nil {
				ds[t], err = pub.SlotFold(gv, 1, [][]paillier.SlotTerm{terms[t]})
			}
			if err != nil {
				return fmt.Errorf("mpc: retained dot product [%d]: %w", t, err)
			}
			terms[t] = []paillier.SlotTerm{{Base: ds[t], Scalar: big.NewInt(1)}}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	slots, groups := pk.Slots(), pk.Groups(total)
	plains := make([]*big.Int, groups)
	for g := range plains {
		masks := vs[g*slots : g*slots+pk.GroupLen(total, g)]
		if retain {
			// The D_t already carry the masks: the groups add the bias only.
			masks = make([]*big.Int, len(masks))
			for s := range masks {
				masks[s] = new(big.Int)
			}
		}
		if plains[g], err = pk.Pack(masks); err != nil {
			return nil, fmt.Errorf("mpc: packing dot masks group %d: %w", g, err)
		}
	}
	starts, err := pub.EncryptBatch(pool, random, plains)
	if err != nil {
		return nil, fmt.Errorf("mpc: encrypting dot masks: %w", err)
	}
	replies := make([]*big.Int, groups)
	if err := paillier.ParallelFor(pool, groups, func(g int) error {
		acc, err := pub.SlotFold(starts[g], pk.Width(), terms[g*slots:min(total, (g+1)*slots)])
		if err != nil {
			return fmt.Errorf("mpc: dot fold group %d: %w", g, err)
		}
		replies[g] = acc
		return nil
	}); err != nil {
		return nil, err
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBigs(replies)); err != nil {
		return nil, err
	}
	return ds, nil
}

// RowGroup is one slot group of a row-dot exchange: Len ≤ S consecutive
// instances of row Row, starting at instance Start of that row. The
// receiver uplinks it as cols ciphertexts (column k packs the group's
// k-th coordinates into slots 0…Len−1); the sender folds those into
// slots Slot…Slot+Len−1 of reply ciphertext Reply.
type RowGroup struct {
	Row, Start, Len int
	Reply, Slot     int
}

// RowLayout places every instance of a row-dot exchange: a row splits
// into groups of at most S slots, groups go in order into reply
// ciphertexts, and a group that does not fit the open reply starts the
// next. Replies[r] is the number of slots reply r uses, from slot 0 up.
type RowLayout struct {
	Groups  []RowGroup
	Replies []int
}

// LayoutRows lays rows of the given lengths (zero allowed: no group) out
// over slots-wide ciphertexts.
func LayoutRows(rowLens []int, slots int) RowLayout {
	var lay RowLayout
	for row, n := range rowLens {
		for start := 0; start < n; start += slots {
			g := RowGroup{Row: row, Start: start, Len: min(slots, n-start)}
			if r := len(lay.Replies) - 1; r >= 0 && lay.Replies[r]+g.Len <= slots {
				g.Reply, g.Slot = r, lay.Replies[r]
				lay.Replies[r] += g.Len
			} else {
				g.Reply = len(lay.Replies)
				lay.Replies = append(lay.Replies, g.Len)
			}
			lay.Groups = append(lay.Groups, g)
		}
	}
	return lay
}

// rowOffsets returns where each row starts in the flat instance order.
func rowOffsets(rowLens []int) (offs []int, total int) {
	offs = make([]int, len(rowLens))
	for row, n := range rowLens {
		if n < 0 {
			return nil, -1
		}
		offs[row] = total
		total += n
	}
	return offs, total
}

// ReceiverRowDot is the receiving half of the row-dot form: xs holds every
// instance's cols coordinates, rows concatenated (instance i of the flat
// order is xs[i·cols:(i+1)·cols], all in [0, SlotMax]), rowLens the row
// lengths. It returns the dot product of every instance with its row's
// scalars, in the flat order.
func ReceiverRowDot(conn transport.Conn, key *paillier.PrivateKey, xs []int64, rowLens []int, cols int, pk *encoding.Packer, random io.Reader, pool *paillier.Pool) ([]*big.Int, error) {
	offs, total := rowOffsets(rowLens)
	if cols < 1 || total < 1 || total*cols != len(xs) {
		return nil, fmt.Errorf("mpc: rows of %d instances × %d columns do not hold %d values", total, cols, len(xs))
	}
	if random == nil {
		random = rand.Reader
	}
	lay := LayoutRows(rowLens, pk.Slots())
	plains := make([]*big.Int, len(lay.Groups)*cols)
	for j, g := range lay.Groups {
		first := offs[g.Row] + g.Start
		for k := 0; k < cols; k++ {
			vals := make([]*big.Int, g.Len)
			for s := range vals {
				vals[s] = big.NewInt(xs[(first+s)*cols+k])
			}
			// Raw (bias-free): the sender's reply carries the bias.
			packed, err := pk.PackRaw(vals)
			if err != nil {
				return nil, fmt.Errorf("mpc: packing row %d column %d: %w", g.Row, k, err)
			}
			plains[j*cols+k] = packed
		}
	}
	cts, err := key.EncryptBatch(pool, random, plains)
	if err != nil {
		return nil, fmt.Errorf("mpc: encrypting packed rows: %w", err)
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBigs(cts)); err != nil {
		return nil, fmt.Errorf("mpc: row-dot receiver send: %w", err)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("mpc: row-dot receiver recv: %w", err)
	}
	replies := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(replies) != len(lay.Replies) {
		return nil, fmt.Errorf("%w: want %d packed row replies, got %d", ErrLengthMismatch, len(lay.Replies), len(replies))
	}
	packed, err := key.DecryptBatch(pool, replies)
	if err != nil {
		return nil, fmt.Errorf("mpc: decrypting row replies: %w", err)
	}
	slots := make([][]*big.Int, len(packed))
	for i, pv := range packed {
		if slots[i], err = pk.Unpack(pv, lay.Replies[i]); err != nil {
			return nil, fmt.Errorf("mpc: unpacking row reply %d: %w", i, err)
		}
	}
	dots := make([]*big.Int, total)
	for _, g := range lay.Groups {
		copy(dots[offs[g.Row]+g.Start:], slots[g.Reply][g.Slot:g.Slot+g.Len])
	}
	return dots, nil
}

// SenderRowDot is the sending half of ReceiverRowDot: ys[row] holds row's
// cols column scalars. Reply r starts as one encryption of its used
// slots' bias — the reply's only nonce — and every group folds
// Π_k E(column k)^{y_k·2^{w·Slot}} onto it: one scalar multiplication
// scales the group's slots by y_k, the product over k sums the columns,
// and the shift moves the group to its offset.
func SenderRowDot(conn transport.Conn, pub *paillier.PublicKey, ys [][]int64, rowLens []int, cols int, pk *encoding.Packer, random io.Reader, pool *paillier.Pool) error {
	if _, total := rowOffsets(rowLens); cols < 1 || total < 1 || len(ys) != len(rowLens) {
		return fmt.Errorf("mpc: %d scalar rows for %d rows of %d instances × %d columns", len(ys), len(rowLens), total, cols)
	}
	for row, y := range ys {
		if len(y) != cols {
			return fmt.Errorf("%w: row %d has %d column scalars for %d columns", ErrLengthMismatch, row, len(y), cols)
		}
	}
	if random == nil {
		random = rand.Reader
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return fmt.Errorf("mpc: row-dot sender recv: %w", err)
	}
	cts := r.Bigs()
	if r.Err() != nil {
		return r.Err()
	}
	lay := LayoutRows(rowLens, pk.Slots())
	if len(cts) != len(lay.Groups)*cols {
		return fmt.Errorf("%w: received %d packed row columns, expect %d", ErrLengthMismatch, len(cts), len(lay.Groups)*cols)
	}
	folds := make([][][]paillier.SlotTerm, len(lay.Replies))
	biasPlains := make([]*big.Int, len(lay.Replies))
	for i, used := range lay.Replies {
		folds[i] = make([][]paillier.SlotTerm, used)
		zeros := make([]*big.Int, used)
		for s := range zeros {
			zeros[s] = new(big.Int)
		}
		if biasPlains[i], err = pk.Pack(zeros); err != nil {
			return fmt.Errorf("mpc: packing row reply bias %d: %w", i, err)
		}
	}
	for j, g := range lay.Groups {
		terms := make([]paillier.SlotTerm, cols)
		for k := range terms {
			terms[k] = paillier.SlotTerm{Base: cts[j*cols+k], Scalar: big.NewInt(ys[g.Row][k])}
		}
		folds[g.Reply][g.Slot] = terms
	}
	biases, err := pub.EncryptBatch(pool, random, biasPlains)
	if err != nil {
		return fmt.Errorf("mpc: encrypting row reply biases: %w", err)
	}
	replies := make([]*big.Int, len(lay.Replies))
	if err := paillier.ParallelFor(pool, len(replies), func(i int) error {
		acc, err := pub.SlotFold(biases[i], pk.Width(), folds[i])
		if err != nil {
			return fmt.Errorf("mpc: row-dot fold reply %d: %w", i, err)
		}
		replies[i] = acc
		return nil
	}); err != nil {
		return err
	}
	return transport.SendMsg(conn, transport.NewBuilder().PutBigs(replies))
}
