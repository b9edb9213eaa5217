package core

import (
	"bytes"
	"fmt"
	"math/big"

	"repro/internal/compare"
	"repro/internal/encoding"
	"repro/internal/mpc"
	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// ArbitraryAlice runs the §4.4 protocol as Alice over arbitrarily
// partitioned data: values is the full n×m matrix (only the cells this
// party owns are read) and owners is the public per-cell ownership matrix,
// identical on both sides. The peer concurrently runs ArbitraryBob. Both
// parties obtain the full labelling.
//
// ADP — the arbitrary-partition distance protocol — decomposes each pair
// distance per attribute (§4.4, Figure 4): cells owned by one party on
// both records contribute locally (the vertical part); split cells
// contribute a² to the a-owner, b² to the b-owner, and the −2ab cross term
// through the HDP-style Multiplication Protocol with zero-sum masks (the
// horizontal part, received by Bob). One secure comparison then decides
// Alice_sum + Bob_sum ≤ Eps².
//
// Under the default batched round structure (Config.Batching) the
// lockstep driver hands batchLE a chunk of the pair matrix — whole rows,
// up to 256 undecided pairs (LockstepCluster): the mixed-cell cross terms
// of every pair share one Multiplication Protocol exchange and the
// threshold decisions share one BatchLess — a constant number of
// adp.mp/adp.cmp frames per chunk instead of one exchange per pair, with
// identical per-pair algebra and Ledger entries.
func ArbitraryAlice(conn transport.Conn, cfg Config, values [][]float64, owners [][]partition.Owner) (*Result, error) {
	return runOneShot(NewArbitrarySession(conn, cfg, RoleAlice, values, owners))
}

// ArbitraryBob is Alice's counterpart; see ArbitraryAlice.
func ArbitraryBob(conn transport.Conn, cfg Config, values [][]float64, owners [][]partition.Owner) (*Result, error) {
	return runOneShot(NewArbitrarySession(conn, cfg, RoleBob, values, owners))
}

// NewArbitrarySession establishes a long-lived §4.4 session: handshake,
// keys, ownership verification, and (under grid pruning) the cell-matrix
// exchange happen once; each Run executes one lockstep clustering.
func NewArbitrarySession(conn transport.Conn, cfg Config, role Role, values [][]float64, owners [][]partition.Owner) (*Session, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("core: arbitrary protocol requires at least one record")
	}
	if len(owners) != len(values) {
		return nil, fmt.Errorf("core: %d records but %d ownership rows", len(values), len(owners))
	}
	m := len(values[0])
	for i := range values {
		if len(values[i]) != m || len(owners[i]) != m {
			return nil, fmt.Errorf("core: record %d has inconsistent width", i)
		}
	}
	enc, err := cfg.encodeOwnedCells(values, owners, role)
	if err != nil {
		return nil, err
	}
	s, peer, err := establish(conn, cfg, role, "arbitrary", m, len(values))
	if err != nil {
		return nil, err
	}
	if peer.Dim != m || peer.Count != len(values) {
		return nil, fmt.Errorf("%w: shape %dx%d vs %dx%d", ErrHandshake, len(values), m, peer.Count, peer.Dim)
	}
	if err := s.setDimension(m); err != nil {
		return nil, err
	}
	if err := s.productPackers(); err != nil {
		return nil, fmt.Errorf("core: product packer: %w", err)
	}
	conns := s.Conns
	if err := verifyOwnership(conns[0], owners); err != nil {
		return nil, err
	}
	a := &adpState{s: s, role: role, enc: enc, owners: owners}
	// Grid pruning: every attribute cell coordinate is disclosed by the
	// value's owner (adp.idx) and routed into full per-record cell rows via
	// the public ownership matrix; non-adjacent pairs are decided locally.
	// Pruned pairs keep their PairDecisions budget entry, and the Bob side
	// keeps the DotProducts budget entry for pruned pairs with mixed cells
	// (whose cross terms the index made unnecessary) — see Ledger docs.
	// Session-level state: repeated Runs reuse the matrix, and an
	// AppendOwned extends it by the new records' coordinates only.
	var cellRows [][]int64
	if s.pruneOn {
		own := aOwnCoords(s, enc, owners)
		r, err := s.SwapMsg(conns[0], "adp.idx", transport.NewBuilder().PutInts(own))
		if err != nil {
			return nil, fmt.Errorf("core: adp index exchange: %w", err)
		}
		if cellRows, err = aCellRows(s, r, owners, own); err != nil {
			return nil, err
		}
	}
	as := &aStream{RowGens: NewRowGens(len(values), cellRows), a: a}
	t := newSession(conn, s, "arbitrary")
	t.runOnce = func() (*Result, error) { return arbitraryRunOnce(t, as) }
	t.appendInit = func(values [][]float64, owners [][]partition.Owner) (bool, error) {
		return arbitraryAppendInit(t, as, values, owners)
	}
	t.appendServe = func(r *transport.Reader) error { return arbitraryAppendServe(t, as, r) }
	t.window = as.Window
	t.expire = func(gens int) error {
		rows := as.Expire(gens)
		a.enc, a.owners = a.enc[rows:], a.owners[rows:]
		return nil
	}
	t.rowRetract(as.RowGens, func(ids []int) {
		a.enc, a.owners = CompactRows(a.enc, ids), CompactRows(a.owners, ids)
	})
	return t, nil
}

// aStream is the arbitrary family's mutable session state: the shared-row
// generation table (cell matrix under pruning and the cross-run pair cache
// included — pair bits are public to both parties, so the caches agree and
// the seeded lockstep drivers stay in lock step) plus the matrices that
// are this family's own, the growing (values, owners) pair inside
// adpState.
type aStream struct {
	*RowGens
	a *adpState
}

// arbitraryAppendInit announces the appended records — their public
// ownership rows travel with the count; the values never do — and
// completes the per-cell coordinate swap under pruning.
func arbitraryAppendInit(t *Session, as *aStream, values [][]float64, owners [][]partition.Owner) (sent bool, err error) {
	s := t.s
	if owners == nil {
		return false, fmt.Errorf("core: arbitrary protocol takes AppendOwned, not Append")
	}
	if len(owners) != len(values) {
		return false, fmt.Errorf("core: %d appended records but %d ownership rows", len(values), len(owners))
	}
	for i := range values {
		if len(values[i]) != s.dim || len(owners[i]) != s.dim {
			return false, fmt.Errorf("core: appended record %d has inconsistent width (want %d)", i, s.dim)
		}
	}
	batch, err := s.cfg.encodeOwnedCells(values, owners, s.role)
	if err != nil {
		return false, err
	}
	msg := transport.NewBuilder().PutUint(sessOpAppend).PutUint(uint64(len(batch)))
	msg.PutBytes(flattenOwners(owners))
	own := appendACoords(s, msg, batch, owners)
	if err := t.sendOp(msg); err != nil {
		return true, fmt.Errorf("core: session append op: %w", err)
	}
	r, err := transport.RecvMsg(s.Conns[0])
	if err != nil {
		return true, fmt.Errorf("core: session append reply: %w", err)
	}
	peerCount := int(r.Uint())
	if err := r.Err(); err != nil {
		return true, err
	}
	return true, finishAAppend(t, as, batch, owners, own, peerCount, r)
}

// arbitraryAppendServe is the serving side: parse the announced ownership
// rows, obtain our cells of the new records from the append source, and
// swap coordinates.
func arbitraryAppendServe(t *Session, as *aStream, r *transport.Reader) error {
	s := t.s
	peerCount := int(r.Uint())
	ownersFlat := r.Bytes()
	if err := r.Err(); err != nil {
		return err
	}
	// Validate by division: a hostile count near 2^63 would wrap the
	// product peerCount·dim and slip past an equality check.
	if peerCount < 0 || len(ownersFlat)%s.dim != 0 || len(ownersFlat)/s.dim != peerCount {
		return fmt.Errorf("core: append announces %d records with %d ownership cells", peerCount, len(ownersFlat))
	}
	owners := make([][]partition.Owner, peerCount)
	for i := range owners {
		row := make([]partition.Owner, s.dim)
		for k := range row {
			o := partition.Owner(ownersFlat[i*s.dim+k])
			if o != partition.Alice && o != partition.Bob {
				return fmt.Errorf("core: append ownership cell (%d,%d) is %d", i, k, o)
			}
			row[k] = o
		}
		owners[i] = row
	}
	values, err := t.appendSource()(AppendRequest{PeerCount: peerCount, Owners: owners})
	if err != nil {
		return fmt.Errorf("core: append source: %w", err)
	}
	if len(values) != peerCount {
		return fmt.Errorf("core: append source returned %d records, want %d (arbitrary records are shared)", len(values), peerCount)
	}
	for i := range values {
		if len(values[i]) != s.dim {
			return fmt.Errorf("core: append source record %d has %d attributes, want %d", i, len(values[i]), s.dim)
		}
	}
	batch, err := s.cfg.encodeOwnedCells(values, owners, s.role)
	if err != nil {
		return err
	}
	msg := transport.NewBuilder().PutUint(uint64(len(batch)))
	own := appendACoords(s, msg, batch, owners)
	if err := t.sendOp(msg); err != nil {
		return fmt.Errorf("core: session append reply: %w", err)
	}
	return finishAAppend(t, as, batch, owners, own, peerCount, r)
}

// flattenOwners serializes ownership rows for the wire (one byte per
// cell, row-major — the verifyOwnership encoding).
func flattenOwners(owners [][]partition.Owner) []byte {
	if len(owners) == 0 {
		return nil
	}
	flat := make([]byte, 0, len(owners)*len(owners[0]))
	for _, row := range owners {
		for _, o := range row {
			flat = append(flat, byte(o))
		}
	}
	return flat
}

// aOwnCoords lists, in ascending (record, attribute) order, the 1-D cell
// coordinate of every value this party owns among the given records — the
// payload of every arbitrary-partition index disclosure.
func aOwnCoords(s *Pair, enc [][]int64, owners [][]partition.Owner) []int64 {
	var coords []int64
	mine := s.role.owner()
	for i := range enc {
		for k := range enc[i] {
			if owners[i][k] == mine {
				coords = append(coords, spatial.BucketCoord(enc[i][k], s.cellW))
			}
		}
	}
	return coords
}

// aCellRows reads the peer's coordinate stream for the same records and
// routes it, with our own, through the public ownership rows into the
// full per-record cell rows.
func aCellRows(s *Pair, r *transport.Reader, owners [][]partition.Owner, own []int64) ([][]int64, error) {
	theirs := r.Ints()
	if err := r.Err(); err != nil {
		return nil, err
	}
	want := -len(own)
	for _, row := range owners {
		want += len(row)
	}
	if len(theirs) != want {
		return nil, fmt.Errorf("core: adp index carries %d coordinates, want %d", len(theirs), want)
	}
	s.led(func(l *Ledger) { l.IndexCellCoords += len(theirs) })
	full := make([][]int64, len(owners))
	mine := s.role.owner()
	for i := range owners {
		row := make([]int64, len(owners[i]))
		for k := range row {
			if owners[i][k] == mine {
				row[k], own = own[0], own[1:]
			} else {
				row[k], theirs = theirs[0], theirs[1:]
			}
		}
		full[i] = row
	}
	return full, nil
}

// appendACoords attaches this party's coordinates of the appended records
// when pruning is on — the per-record payload of the construction-time
// adp.idx exchange — and returns them.
func appendACoords(s *Pair, msg *transport.Builder, batch [][]int64, owners [][]partition.Owner) []int64 {
	if !s.pruneOn {
		return nil
	}
	own := aOwnCoords(s, batch, owners)
	msg.PutInts(own)
	return own
}

// finishAAppend validates the peer half (the already-parsed count; under
// pruning its cell coordinates, routed through the appended ownership
// rows — r is positioned at them) and extends the session state.
func finishAAppend(t *Session, as *aStream, batch [][]int64, owners [][]partition.Owner, own []int64, peerCount int, r *transport.Reader) error {
	if peerCount != len(batch) {
		return fmt.Errorf("core: append count %d vs peer %d (arbitrary records are shared)", len(batch), peerCount)
	}
	var cells [][]int64
	if t.s.pruneOn {
		var err error
		if cells, err = aCellRows(t.s, r, owners, own); err != nil {
			return err
		}
		// One delta entry per coordinate the peer disclosed: every cell of
		// the batch that is not ours.
		t.s.led(func(l *Ledger) { l.IndexDeltaCells += len(batch)*t.s.dim - len(own) })
	}
	as.a.enc = append(as.a.enc, batch...)
	as.a.owners = append(as.a.owners, owners...)
	as.Append(len(batch), cells)
	return nil
}

// arbitraryRunOnce executes one lockstep clustering over the established
// session state, seeded with the cross-run pair cache. A cached pair
// records the same decision-level budget the oracle would have: one
// PairDecisions entry, plus the Bob-side DotProducts entry when the pair
// has mixed cells (whose cross terms an earlier run's Multiplication
// Protocol already paid for).
func arbitraryRunOnce(t *Session, as *aStream) (*Result, error) {
	s := t.s
	role := s.role
	a := as.a
	engA, engB, err := s.DistEngines()
	if err != nil {
		return nil, err
	}
	n := len(a.enc)
	onPruned := func(pr [2]int) {
		s.led(func(l *Ledger) {
			l.PairDecisions++
			if role == RoleBob && a.hasMixed(pr[0], pr[1]) {
				l.DotProducts++
			}
		})
	}
	onCached := func(pr [2]int, in bool) {
		s.led(func(l *Ledger) {
			l.PairDecisions++
			if role == RoleBob && a.hasMixed(pr[0], pr[1]) {
				l.DotProducts++
			}
		})
		s.cmpCached.Add(1)
	}
	batchOn := func(ch int, pairs [][2]int) ([]bool, error) { return a.batchLE(t.s.Conns[ch], pairs, engA, engB) }
	if !s.batched() {
		batchOn = PerPairOracle(func(i, j int) (bool, error) {
			conn := t.s.Conns[0]
			ownSum, err := a.localAndCrossSum(conn, i, j)
			if err != nil {
				return false, err
			}
			setTag(conn, "adp.cmp")
			s.led(func(l *Ledger) { l.PairDecisions++ })
			if role == RoleAlice {
				return engA.Less(conn, ownSum)
			}
			return engB.Less(conn, s.responderOperand(engB.Bound(), ownSum))
		})
	}
	labels, clusters, err := LockstepCluster(n, s.cfg.MinPts, s.cfg.Parallel, s.lockstepFrameBytes(engA, engB),
		as.Cache, onCached, PrunedLocalDecider(as.CellRows, onPruned), batchOn)
	if err != nil {
		return nil, err
	}
	return t.result(labels, clusters), nil
}

// owner is the party's name in the public ownership matrix.
func (r Role) owner() partition.Owner {
	if r == RoleBob {
		return partition.Bob
	}
	return partition.Alice
}

// encodeOwnedCells fixed-point encodes only the cells this party owns;
// unowned cells are zeroed and never read.
func (c Config) encodeOwnedCells(values [][]float64, owners [][]partition.Owner, role Role) ([][]int64, error) {
	codec, err := c.codec()
	if err != nil {
		return nil, err
	}
	mine := role.owner()
	enc := make([][]int64, len(values))
	for i, row := range values {
		er := make([]int64, len(row))
		for j, v := range row {
			if owners[i][j] != mine {
				continue
			}
			x, err := codec.Encode(v)
			if err != nil {
				return nil, fmt.Errorf("core: record %d attribute %d: %w", i, j, err)
			}
			if x > c.MaxCoord {
				return nil, fmt.Errorf("core: record %d attribute %d encodes to %d > MaxCoord %d", i, j, x, c.MaxCoord)
			}
			er[j] = x
		}
		enc[i] = er
	}
	return enc, nil
}

// verifyOwnership exchanges the public ownership matrix and confirms both
// parties hold identical copies — the matrix is public protocol input, so
// disagreement is a configuration error, not a privacy event.
func verifyOwnership(conn transport.Conn, owners [][]partition.Owner) error {
	setTag(conn, "adp.owners")
	flat := flattenOwners(owners)
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBytes(flat)); err != nil {
		return err
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return err
	}
	got := r.Bytes()
	if r.Err() != nil {
		return r.Err()
	}
	if !bytes.Equal(got, flat) {
		return fmt.Errorf("%w: ownership matrices differ", ErrHandshake)
	}
	return nil
}

// adpState carries one party's view of the arbitrary-partition distance
// computation; connections are supplied per call so the parallel
// scheduler can run batches on any worker channel.
type adpState struct {
	s      *Pair
	role   Role
	enc    [][]int64
	owners [][]partition.Owner
}

// pairTerms decomposes this party's share of dist²(d_i, d_j) into the
// locally-computable sum and the mixed-cell values (attributes owned by
// this party on one record and the peer on the other, in ascending
// attribute order — identical on both sides because owners is public).
func (a *adpState) pairTerms(i, j int) (local int64, mixedVals []int64) {
	mine := a.role.owner()
	for k := 0; k < a.s.dim; k++ {
		oi, oj := a.owners[i][k], a.owners[j][k]
		switch {
		case oi == mine && oj == mine:
			d := a.enc[i][k] - a.enc[j][k]
			local += d * d
		case oi != mine && oj != mine:
			// Peer-local term; contributes to the peer's share.
		case oi == mine:
			local += a.enc[i][k] * a.enc[i][k]
			mixedVals = append(mixedVals, a.enc[i][k])
		default:
			local += a.enc[j][k] * a.enc[j][k]
			mixedVals = append(mixedVals, a.enc[j][k])
		}
	}
	return local, mixedVals
}

// hasMixed reports whether the pair has any split attribute (owned by
// different parties on the two records) — the allocation-free test the
// pruned-pair Ledger accounting uses.
func (a *adpState) hasMixed(i, j int) bool {
	for k := 0; k < a.s.dim; k++ {
		if a.owners[i][k] != a.owners[j][k] {
			return true
		}
	}
	return false
}

// localAndCrossSum computes this party's additive share of dist²(d_i, d_j):
// locally-owned attribute terms plus this party's side of the mixed-cell
// cross terms, running one Multiplication Protocol exchange per pair.
func (a *adpState) localAndCrossSum(conn transport.Conn, i, j int) (int64, error) {
	local, mixedVals := a.pairTerms(i, j)
	if len(mixedVals) == 0 {
		return local, nil
	}

	// Cross terms −2ab, Bob receiving (the §4.4 convention: "use Protocol
	// HDP to let Bob get" the horizontal part).
	setTag(conn, "adp.mp")
	if a.role == RoleAlice {
		masks, err := mpc.ZeroSumMasks(a.s.random, len(mixedVals), a.s.zeroSumBound())
		if err != nil {
			return 0, err
		}
		if err := mpc.SenderBatchMultiply(conn, a.s.peerPai, mixedVals, masks, a.s.random, a.s.pool); err != nil {
			return 0, fmt.Errorf("core: adp multiplication: %w", err)
		}
		// Zero-sum masks cancel: Alice's share needs no correction.
		return local, nil
	}
	us, err := mpc.ReceiverBatchMultiply(conn, a.s.paiKey, mixedVals, a.s.random, a.s.pool)
	if err != nil {
		return 0, fmt.Errorf("core: adp multiplication: %w", err)
	}
	cross, err := sumInt64(us)
	if err != nil {
		return 0, err
	}
	a.s.led(func(l *Ledger) { l.DotProducts++ })
	return local - 2*cross, nil
}

// batchLE decides every pair of one lockstep chunk in a constant number of
// round trips: the mixed-cell cross terms of all pairs ride one
// Multiplication Protocol exchange (zero-sum masks stay per-pair, so each
// pair's share algebra is exactly the sequential protocol's), then one
// BatchLess settles all the threshold comparisons.
func (a *adpState) batchLE(conn transport.Conn, pairs [][2]int, engA compare.Alice, engB compare.Bob) ([]bool, error) {
	s := a.s
	ownSums := make([]int64, len(pairs))
	mixedPerPair := make([][]int64, len(pairs))
	totalMixed := 0
	for t, pr := range pairs {
		local, mixedVals := a.pairTerms(pr[0], pr[1])
		ownSums[t] = local
		mixedPerPair[t] = mixedVals
		totalMixed += len(mixedVals)
	}

	if totalMixed > 0 {
		setTag(conn, "adp.mp")
		if a.role == RoleAlice {
			ys := make([]int64, 0, totalMixed)
			vs := make([]*big.Int, 0, totalMixed)
			mb := s.zeroSumBound()
			for _, mixedVals := range mixedPerPair {
				if len(mixedVals) == 0 {
					continue
				}
				masks, err := mpc.ZeroSumMasks(s.random, len(mixedVals), mb)
				if err != nil {
					return nil, err
				}
				ys = append(ys, mixedVals...)
				vs = append(vs, masks...)
			}
			if pk := s.mpPeer; pk != nil {
				// Scatter shape: the per-element scalars differ, so only
				// the reply direction packs.
				if err := mpc.SenderScatterMultiply(conn, s.peerPai, ys, vs, pk, s.random, s.pool); err != nil {
					return nil, fmt.Errorf("core: adp packed multiplication: %w", err)
				}
				// Masked products answering the peer's scattered operands:
				// response leg.
				s.ctsDown.Add(int64(pk.Groups(totalMixed)))
			} else {
				if err := mpc.SenderBatchMultiply(conn, s.peerPai, ys, vs, s.random, s.pool); err != nil {
					return nil, fmt.Errorf("core: adp batch multiplication: %w", err)
				}
				s.ctsDown.Add(int64(totalMixed))
			}
		} else {
			xs := make([]int64, 0, totalMixed)
			for _, mixedVals := range mixedPerPair {
				xs = append(xs, mixedVals...)
			}
			var us []*big.Int
			var err error
			if pk := s.mpOwn; pk != nil {
				us, err = mpc.ReceiverScatterMultiply(conn, s.paiKey, xs, pk, s.random, s.pool)
				if err != nil {
					return nil, fmt.Errorf("core: adp packed multiplication: %w", err)
				}
			} else {
				us, err = mpc.ReceiverBatchMultiply(conn, s.paiKey, xs, s.random, s.pool)
				if err != nil {
					return nil, fmt.Errorf("core: adp batch multiplication: %w", err)
				}
			}
			// The receiver's uplink is one ciphertext per mixed value in
			// every mode — its operands open the sub-protocol: request leg.
			s.ctsUp.Add(int64(totalMixed))
			off := 0
			for t, mixedVals := range mixedPerPair {
				if len(mixedVals) == 0 {
					continue
				}
				cross, err := sumInt64(us[off : off+len(mixedVals)])
				if err != nil {
					return nil, err
				}
				off += len(mixedVals)
				ownSums[t] -= 2 * cross
				s.led(func(l *Ledger) { l.DotProducts++ })
			}
		}
	}

	setTag(conn, "adp.cmp")
	s.led(func(l *Ledger) { l.PairDecisions += len(pairs) })
	if a.role == RoleAlice {
		// A chunk holds whole rows; the grouped uplink dedups within one.
		return engA.BatchLessRows(conn, ownSums, PairRows(pairs))
	}
	js := make([]int64, len(ownSums))
	for t, v := range ownSums {
		js[t] = s.responderOperand(engB.Bound(), v)
	}
	return engB.BatchLess(conn, js)
}

// sumInt64 totals masked products, guarding against overflow.
func sumInt64(us []*big.Int) (int64, error) {
	total := new(big.Int)
	for _, u := range us {
		total.Add(total, u)
	}
	if !total.IsInt64() {
		return 0, fmt.Errorf("core: adp cross sum overflows int64")
	}
	return total.Int64(), nil
}

// zeroSumBound returns the zero-sum mask magnitude of the masked-product
// phases. Unpacked, masks are drawn in (−2^62, 2^62), far inside the
// Paillier plaintext space. The packed path needs a bound both parties
// can derive from handshake-agreed parameters so they size identical
// slots, and one that scales with the data so S slots plus their mask
// headroom fit the plaintext space: B = MaxCoord²·2^CmpMaskBits, which
// still hides each product statistically (|x·y| ≤ MaxCoord² and the mask
// is 2^κ times larger).
func (s *Pair) zeroSumBound() *big.Int {
	if !s.packing() {
		return new(big.Int).Lsh(big.NewInt(1), 62)
	}
	b := big.NewInt(s.cfg.MaxCoord * s.cfg.MaxCoord)
	return b.Lsh(b, uint(s.cfg.CmpMaskBits))
}

// productPackers derives the pair's masked-product packers (a no-op with
// packing off): each slot holds x·y + Σ masks with |x·y| ≤ MaxCoord² and
// up to s.dim zero-sum mask terms of magnitude zeroSumBound (the last
// ZeroSumMasks share is the negated sum of the others, so it can reach
// (m−1)·B). The arbitrary-partition establishment calls it once, after
// setDimension.
func (s *Pair) productPackers() (err error) {
	if !s.packing() {
		return nil
	}
	maxProduct := s.cfg.MaxCoord * s.cfg.MaxCoord
	if s.mpPeer, err = encoding.NewProductPacker(s.peerPai.PlaintextBound(), maxProduct, s.zeroSumBound(), s.dim); err == nil {
		s.mpOwn, err = encoding.NewProductPacker(s.paiKey.PlaintextBound(), maxProduct, s.zeroSumBound(), s.dim)
	}
	return err
}
