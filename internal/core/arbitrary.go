package core

import (
	"bytes"
	"fmt"

	"repro/internal/compare"
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
// through the horizontal part, which the paper has Bob receive by HDP's
// Multiplication Protocol with zero-sum masks. One secure comparison then
// decides Alice_sum + Bob_sum ≤ Eps².
//
// Bob keeps only the sum of a pair's masked cross products, and the
// zero-sum masks cancel in it: what he keeps is the exact cross dot
// product Σ a·b, so that is what this protocol hands him. The lockstep
// driver hands batchLE a chunk of the pair matrix — whole rows, up to 256
// undecided pairs (LockstepCluster). Bob uplinks one ciphertext per mixed
// value of the chunk; Alice folds each pair's mixed terms into one slot of
// a reply that starts as one bias encryption (mpc.SenderScatterDot: S
// slots a reply under the pair's dot-product packer, one under "off"), and
// Bob decrypts each pair's dot product and nothing else. hdp.go argues why
// that view is the paper's masked round's, for the same exchange in HDP;
// the Ledger's DotProducts entry per mixed pair records it. The
// comparisons follow as in the vertical family (Pair.decidePairs): a chunk
// is 2 adp.mp frames plus its comparison frames at every packing, with one
// comparison at a time under sequential batching.
func ArbitraryAlice(conn transport.Conn, cfg Config, values [][]float64, owners [][]partition.Owner) (*Result, error) {
	return runOneShot(NewArbitrarySession(conn, cfg, RoleAlice, values, owners))
}

// ArbitraryBob is Alice's counterpart; see ArbitraryAlice.
func ArbitraryBob(conn transport.Conn, cfg Config, values [][]float64, owners [][]partition.Owner) (*Result, error) {
	return runOneShot(NewArbitrarySession(conn, cfg, RoleBob, values, owners))
}

// NewArbitrarySession establishes a long-lived §4.4 session: handshake,
// keys, ownership verification, and the cell-matrix exchange happen
// once; each Run executes one lockstep clustering.
func NewArbitrarySession(conn transport.Conn, cfg Config, role Role, values [][]float64, owners [][]partition.Owner) (*Session, error) {
	t, _, err := newArbitrarySession(conn, cfg, role, values, owners)
	return t, err
}

// newArbitrarySession is NewArbitrarySession that also returns the
// family's session state, which the per-pair test oracle runs on.
func newArbitrarySession(conn transport.Conn, cfg Config, role Role, values [][]float64, owners [][]partition.Owner) (*Session, *aStream, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	if len(values) == 0 {
		return nil, nil, fmt.Errorf("core: arbitrary protocol requires at least one record")
	}
	if len(owners) != len(values) {
		return nil, nil, fmt.Errorf("core: %d records but %d ownership rows", len(values), len(owners))
	}
	m := len(values[0])
	for i := range values {
		if len(values[i]) != m || len(owners[i]) != m {
			return nil, nil, fmt.Errorf("core: record %d has inconsistent width", i)
		}
	}
	enc, err := cfg.encodeOwnedCells(values, owners, role)
	if err != nil {
		return nil, nil, err
	}
	keys, err := DrawKeySet(cfg)
	if err != nil {
		return nil, nil, err
	}
	s, peer, err := establish(conn, cfg, keys, role, "arbitrary", m, len(values))
	if err != nil {
		return nil, nil, err
	}
	if peer.Dim != m || peer.Count != len(values) {
		return nil, nil, fmt.Errorf("%w: shape %dx%d vs %dx%d", ErrHandshake, len(values), m, peer.Count, peer.Dim)
	}
	if err := s.setDimension(m); err != nil {
		return nil, nil, err
	}
	if err := s.rowDotPackers(); err != nil {
		return nil, nil, fmt.Errorf("core: dot-product packer: %w", err)
	}
	if err := s.verifyOwnership(owners); err != nil {
		return nil, nil, err
	}
	a := &adpState{s: s, role: role, enc: enc, owners: owners}
	// The index: every attribute cell coordinate on the candidate grid
	// (CandidateGrid) is disclosed by the value's owner (adp.idx) and
	// routed into full per-record cell rows via the public ownership
	// matrix; non-adjacent pairs are decided locally, and on the one-cell
	// grid there are none. Pruned pairs keep their PairDecisions budget
	// entry, and the Bob side keeps the DotProducts budget entry for pruned
	// pairs with mixed cells (whose cross terms the index made
	// unnecessary) — see Ledger docs. Session-level state: repeated Runs
	// reuse the matrix, and an AppendOwned extends it by the new records'
	// coordinates only.
	own := aOwnCoords(s, enc, owners)
	r, err := s.Swap("adp.idx", transport.NewBuilder().PutInts(own))
	if err != nil {
		return nil, nil, fmt.Errorf("core: adp index exchange: %w", err)
	}
	cellRows, err := aCellRows(s, r, owners, own)
	if err != nil {
		return nil, nil, err
	}
	as := &aStream{RowGens: NewRowGens(len(values), cellRows), a: a, domain: s.arbitraryDomain()}
	t := newSession(conn, s, "arbitrary")
	t.runOnce = func() (*Result, error) { return arbitraryRunOnce(t, as) }
	// An append announces the records' public ownership rows (the values
	// never travel), and its index payload is this party's cell coordinates
	// of them — the per-record payload of the construction-time exchange.
	t.appends = appendHooks{
		shared:  true,
		live:    func() int { return as.N },
		request: func(r *transport.Reader, count int) ([][]partition.Owner, error) { return readOwners(r, count, m) },
		encode: func(values [][]float64, owners [][]partition.Owner) ([][]int64, error) {
			if len(owners) != len(values) {
				return nil, fmt.Errorf("core: %d appended records but %d ownership rows", len(values), len(owners))
			}
			for i := range values {
				if len(values[i]) != m || len(owners[i]) != m {
					return nil, fmt.Errorf("core: appended record %d has inconsistent width (want %d)", i, m)
				}
			}
			return cfg.encodeOwnedCells(values, owners, role)
		},
		put: func(msg *transport.Builder, batch [][]int64, owners [][]partition.Owner) error {
			msg.PutInts(aOwnCoords(s, batch, owners))
			return nil
		},
		absorb: func(r *transport.Reader, batch [][]int64, owners [][]partition.Owner, _ int) error {
			own := aOwnCoords(s, batch, owners)
			cells, err := aCellRows(s, r, owners, own)
			if err != nil {
				return err
			}
			// One delta entry per coordinate the peer disclosed: every cell of
			// the batch that is not ours.
			s.led(func(l *Ledger) { l.IndexDeltaCells += len(batch)*m - len(own) })
			a.enc = append(a.enc, batch...)
			a.owners = append(a.owners, owners...)
			as.Append(len(batch), cells)
			return nil
		},
	}
	t.window = as.Window
	t.expire = func(gens int) error {
		rows := as.Expire(gens)
		a.enc, a.owners = a.enc[rows:], a.owners[rows:]
		return nil
	}
	t.rowRetract(as.RowGens, func(ids []int) {
		a.enc, a.owners = CompactRows(a.enc, ids), CompactRows(a.owners, ids)
	})
	return t, as, nil
}

// aStream is the arbitrary family's mutable session state: the shared-row
// generation table (cell matrix and the cross-run pair cache
// included — pair bits are public to both parties, so the caches agree and
// the seeded lockstep drivers stay in lock step) plus the matrices that
// are this family's own, the growing (values, owners) pair inside
// adpState, and the session's comparison domain.
type aStream struct {
	*RowGens
	a      *adpState
	domain int64 // arbitraryDomain: RoleAlice's shifted shares lie in [0, domain]
}

// readOwners parses the ownership rows an append announces for count
// records of dim cells (the flattenOwners encoding).
func readOwners(r *transport.Reader, count, dim int) ([][]partition.Owner, error) {
	flat := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Validate by division: a product count·dim could wrap and slip past an
	// equality check.
	if len(flat)%dim != 0 || len(flat)/dim != count {
		return nil, fmt.Errorf("core: append announces %d records with %d ownership cells", count, len(flat))
	}
	owners := make([][]partition.Owner, count)
	for i := range owners {
		row := make([]partition.Owner, dim)
		for k := range row {
			o := partition.Owner(flat[i*dim+k])
			if o != partition.Alice && o != partition.Bob {
				return nil, fmt.Errorf("core: append ownership cell (%d,%d) is %d", i, k, o)
			}
			row[k] = o
		}
		owners[i] = row
	}
	return owners, nil
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
	want := -len(own)
	for _, row := range owners {
		want += len(row)
	}
	theirs := r.Ints(want)
	if err := r.Err(); err != nil {
		return nil, err
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

// arbitraryRunOnce executes one lockstep clustering over the established
// session state, seeded with the cross-run pair cache. A cached pair
// records the same decision-level budget the oracle would have: one
// PairDecisions entry, plus the Bob-side DotProducts entry when the pair
// has mixed cells (whose cross dot product an earlier run's exchange
// already disclosed).
func arbitraryRunOnce(t *Session, as *aStream) (*Result, error) {
	s := t.s
	a := as.a
	engA, engB, err := s.engines(as.domain + 1)
	if err != nil {
		return nil, err
	}
	onPruned := func(pr [2]int) {
		s.led(func(l *Ledger) {
			l.PairDecisions++
			if s.role == RoleBob && a.hasMixed(pr[0], pr[1]) {
				l.DotProducts++
			}
		})
	}
	onCached := func(pr [2]int, in bool) {
		onPruned(pr)
		s.cmpCached.Add(1)
	}
	batchOn := func(ch int, pairs [][2]int) ([]bool, error) {
		return a.batchLE(ch, pairs, as.CellRows, engA[ch], engB[ch])
	}
	labels, clusters, err := LockstepCluster(len(a.enc), s.cfg.MinPts, s.cfg.Parallel, s.lockstepFrameBytes(engA[0], engB[0]),
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
func (s *Pair) verifyOwnership(owners [][]partition.Owner) error {
	flat := flattenOwners(owners)
	r, err := s.Swap("adp.owners", transport.NewBuilder().PutBytes(flat))
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

// splitShift is the pair's public shift L = Σ (c·W)² over its split
// attributes, c the cell of the value RoleAlice owns (cells is the shared
// cell matrix). Her term u² of such an attribute less (cW)² lies in
// [0, min((c+1)W − 1, M)² − (cW)²] (arbitraryDomain); on the one-cell grid
// every c is 0, so L is too.
func (a *adpState) splitShift(cells [][]int64, i, j int) int64 {
	var l int64
	for k := 0; k < a.s.dim; k++ {
		if a.owners[i][k] == a.owners[j][k] {
			continue
		}
		r := i
		if a.owners[j][k] == partition.Alice {
			r = j
		}
		lo := cells[r][k] * a.s.cellW
		l += lo * lo
	}
	return l
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

// batchLE decides every pair of one lockstep chunk in a constant number of
// round trips: the mixed-cell cross terms of all pairs ride one dot
// exchange — Bob's uplink one ciphertext per mixed value, Alice's reply one
// slot per pair with mixed cells — then Pair.decidePairs settles the
// threshold comparisons. Each pair's share algebra is the paper's: Bob's
// share is his local sum minus twice the cross dot product, which is all
// the masked products' sum ever gave him. The chunk runs on worker channel
// ch, on that channel's engines.
//
// Before the comparison each pair's shares move by its public shift L
// (splitShift): RoleAlice's less L, RoleBob's plus L, so their sum and the
// predicate stay and RoleAlice's operand fits the session's domain. An
// equal shifted operand under two shifts would tell Bob a₁ − a₂, so the
// grouped uplink dedups within (row, L) only (shiftRows).
func (a *adpState) batchLE(ch int, pairs [][2]int, cells [][]int64, engA compare.Alice, engB compare.Bob) ([]bool, error) {
	s := a.s
	conn := s.Conns[ch]
	shares := make([]int64, len(pairs))
	var mixed [][]int64
	var mixedAt []int // mixedAt[u] is the chunk index of mixed[u]'s pair
	totalMixed := 0
	for t, pr := range pairs {
		local, mixedVals := a.pairTerms(pr[0], pr[1])
		shares[t] = local
		if len(mixedVals) > 0 {
			mixed, mixedAt = append(mixed, mixedVals), append(mixedAt, t)
			totalMixed += len(mixedVals)
		}
	}

	if len(mixed) > 0 {
		setTag(conn, "adp.mp")
		if a.role == RoleAlice {
			if err := mpc.SenderScatterDot(conn, s.peerPai, mixed, s.rdPeer, s.streams[ch], s.pool); err != nil {
				return nil, fmt.Errorf("core: adp dot exchange: %w", err)
			}
			// The folded dot products answer the peer's encrypted operands:
			// response leg.
			s.ctsDown.Add(int64(s.rdPeer.Groups(len(mixed))))
		} else {
			dots, err := mpc.ReceiverScatterDot(conn, s.paiKey, mixed, s.rdOwn, s.streams[ch], s.pool)
			if err != nil {
				return nil, fmt.Errorf("core: adp dot exchange: %w", err)
			}
			// The receiver's uplink is one ciphertext per mixed value — its
			// operands open the sub-protocol: request leg.
			s.ctsUp.Add(int64(totalMixed))
			// A slot is at most 53 bits wide (bound ≤ 2^50): every dot fits int64.
			for u, t := range mixedAt {
				shares[t] -= 2 * dots[u].Int64()
			}
			s.led(func(l *Ledger) { l.DotProducts += len(mixed) })
		}
	}
	shifts := make([]int64, len(pairs))
	for t, pr := range pairs {
		shifts[t] = a.splitShift(cells, pr[0], pr[1])
		if a.role == RoleAlice {
			shares[t] -= shifts[t]
		} else {
			shares[t] += shifts[t]
		}
	}
	return s.decidePairs(conn, "adp.cmp", engA, engB, shiftRows(pairs, shifts), shares)
}
