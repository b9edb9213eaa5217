// Streaming sessions for the multiparty extensions. NewRingSession and
// NewMeshSession split establishment (handshake, keys, index
// circulation) from runs exactly like core.Session, and add Append: all
// k parties call the same method sequence concurrently — Run/Append are
// ring- (or mesh-) synchronous group operations, the k-party analogue of
// the two-party control channel. Across runs each session keeps the
// cross-run comparison caches of the two-party stack: the ring reuses
// pair bits (public to every party, so all caches agree and the seeded
// lockstep drivers stay in lock step), the mesh reuses per-(point, peer)
// region-count prefixes with generation-scoped suffix queries.
package multiparty

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// RingSession is one party's half of a long-lived ring (k-party
// vertical) session.
type RingSession struct {
	st       *state
	cellRows [][]int64
	cache    *core.PairCache
	cached   atomic.Int64
	runs     int
	batches  []int // record count of each append generation (establishment is generation 0)
	dead     int   // generations expired out of the sliding window
}

// NewRingSession establishes the ring session; every party must
// construct its session concurrently with a consistent ring.
func NewRingSession(party Party, cfg Config, attrs [][]float64) (*RingSession, error) {
	st, cellRows, err := newRingState(party, cfg, attrs)
	if err != nil {
		return nil, err
	}
	return &RingSession{st: st, cellRows: cellRows, cache: core.NewPairCache(), batches: []int{len(st.enc)}}, nil
}

// Runs reports the completed Run calls.
func (rs *RingSession) Runs() int { return rs.runs }

// Append absorbs one batch of appended records: every party calls Append
// concurrently with its own column slice of the same new records (counts
// are verified ring-wide). Under pruning the new rows' cell coordinates
// circulate exactly like the establishment matrix, extending every
// party's copy identically; decided-pair bits for existing records stay
// valid (distances are immutable), so the next Run pays only for pairs
// involving new records.
func (rs *RingSession) Append(attrs [][]float64) error {
	st := rs.st
	enc, err := st.encode(attrs, len(st.enc[0]))
	if err != nil {
		return err
	}
	if err := st.circulateCount(len(enc)); err != nil {
		return err
	}
	if st.pruneOn() && len(enc) > 0 {
		w := spatial.CellWidth(st.epsSq)
		own := make([][]int64, len(enc))
		for i, row := range enc {
			own[i] = spatial.Bucket(row, w)
		}
		rows, err := st.circulateCells(own)
		if err != nil {
			return err
		}
		rs.cellRows = append(rs.cellRows, rows...)
	}
	st.enc = append(st.enc, enc...)
	rs.batches = append(rs.batches, len(enc))
	return nil
}

// Expire slides the ring window: the oldest gens append generations —
// and every record they hold — leave on all parties at once. Every
// party must call Expire concurrently with the same argument; a
// spatial.TombstoneDelta circulates like an append count (two laps,
// coordinator first) so the ring agrees on exactly which generations
// die before anyone mutates state. Locally the expired records are
// compacted out of the attribute matrix and the pruning cell rows, and
// the cross-run pair cache drops every bit touching an expired record
// while remapping the survivors — all parties hold identical caches, so
// the seeded lockstep drivers stay in lock step across expiries.
func (rs *RingSession) Expire(gens int) error {
	st := rs.st
	live := len(rs.batches) - rs.dead
	if gens < 1 || gens > live {
		return fmt.Errorf("multiparty: expire %d of %d live generations", gens, live)
	}
	if err := st.circulateExpire(rs.dead, gens, live); err != nil {
		return err
	}
	rows := 0
	for g := rs.dead; g < rs.dead+gens; g++ {
		rows += rs.batches[g]
		rs.batches[g] = 0
	}
	st.enc = st.enc[rows:]
	if rs.cellRows != nil {
		rs.cellRows = rs.cellRows[rows:]
	}
	rs.cache.Expire(rows)
	rs.dead += gens
	return nil
}

// circulateExpire verifies ring-wide agreement on an expiry: lap 1
// carries the coordinator's tombstone for everyone to check against its
// own window position and Expire argument, lap 2 releases the ring, so
// no party compacts state the others are not also retiring.
func (st *state) circulateExpire(dead, gens, live int) error {
	prev, next := st.prevs[0], st.nexts[0]
	td := spatial.TombstoneDelta{From: dead, N: gens}
	check := func(r *transport.Reader) error {
		got, err := spatial.DecodeTombstoneDelta(r, dead, live)
		if err != nil {
			return fmt.Errorf("multiparty: expire circulation: %w", err)
		}
		if got.N != gens {
			return fmt.Errorf("multiparty: expire disagreement: %d vs %d generations", gens, got.N)
		}
		return nil
	}
	if st.isCoordinator() {
		if err := transport.SendMsg(next, td.Encode(transport.NewBuilder())); err != nil {
			return fmt.Errorf("multiparty: expire send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return fmt.Errorf("multiparty: expire return: %w", err)
		}
		if err := check(r); err != nil {
			return err
		}
		// Lap 2: release the ring.
		if err := transport.SendMsg(next, td.Encode(transport.NewBuilder())); err != nil {
			return err
		}
		_, err = transport.RecvMsg(prev)
		return err
	}
	r, err := transport.RecvMsg(prev)
	if err != nil {
		return fmt.Errorf("multiparty: expire recv: %w", err)
	}
	if err := check(r); err != nil {
		return err
	}
	if err := transport.SendMsg(next, td.Encode(transport.NewBuilder())); err != nil {
		return err
	}
	// Lap 2.
	r2, err := transport.RecvMsg(prev)
	if err != nil {
		return err
	}
	if err := check(r2); err != nil {
		return fmt.Errorf("multiparty: expire release mismatch: %w", err)
	}
	return transport.SendMsg(next, td.Encode(transport.NewBuilder()))
}

// Retract removes individual live records from the ring window:
// records are shared rows under vertical partitioning, so every party
// must call Retract concurrently with the same strictly ascending list
// of live record indices. A spatial.PointTombstone circulates like an
// expiry tombstone (two laps, coordinator first) and each party checks
// the circulated ids id-for-id against its own argument before anyone
// mutates state — no party compacts rows the others are keeping.
// Locally the retracted rows are compacted out of the attribute matrix,
// the pruning cell rows, and the per-generation window counts
// (surviving indices renumber immediately), and the cross-run pair
// cache drops every bit touching a retracted record while remapping the
// survivors identically on all parties, so the seeded lockstep drivers
// stay in lock step across retractions.
func (rs *RingSession) Retract(ids []int) error {
	st := rs.st
	if len(ids) == 0 {
		return fmt.Errorf("multiparty: retract needs at least one record")
	}
	if err := spatial.ValidateRetractIDs(ids, len(st.enc)); err != nil {
		return err
	}
	if err := st.circulateRetract(ids, len(st.enc)); err != nil {
		return err
	}
	// Map each id to its live generation using the pre-retraction window
	// counts, then apply the decrements afterwards (ids are numbered
	// before any of them are removed).
	dec := make(map[int]int)
	g, upto := rs.dead, 0
	if g < len(rs.batches) {
		upto = rs.batches[g]
	}
	for _, id := range ids {
		for id >= upto && g < len(rs.batches)-1 {
			g++
			upto += rs.batches[g]
		}
		dec[g]++
	}
	for gen, d := range dec {
		rs.batches[gen] -= d
	}
	next := 0
	enc := st.enc[:0]
	var cells [][]int64
	if rs.cellRows != nil {
		cells = rs.cellRows[:0]
	}
	for i, row := range st.enc {
		if next < len(ids) && ids[next] == i {
			next++
			continue
		}
		enc = append(enc, row)
		if rs.cellRows != nil {
			cells = append(cells, rs.cellRows[i])
		}
	}
	st.enc = enc
	if rs.cellRows != nil {
		rs.cellRows = cells
	}
	rs.cache.Retract(ids)
	return nil
}

// circulateRetract verifies ring-wide agreement on a retraction: lap 1
// carries the coordinator's point tombstone for every party to check
// id-for-id against its own Retract argument, lap 2 releases the ring.
func (st *state) circulateRetract(ids []int, total int) error {
	prev, next := st.prevs[0], st.nexts[0]
	pt := spatial.PointTombstone{IDs: ids}
	check := func(r *transport.Reader) error {
		got, err := spatial.DecodePointTombstone(r, total)
		if err != nil {
			return fmt.Errorf("multiparty: retract circulation: %w", err)
		}
		if len(got.IDs) != len(ids) {
			return fmt.Errorf("multiparty: retract disagreement: %d vs %d records (records are shared)", len(ids), len(got.IDs))
		}
		for i := range ids {
			if got.IDs[i] != ids[i] {
				return fmt.Errorf("multiparty: retract disagreement at position %d: id %d vs %d", i, ids[i], got.IDs[i])
			}
		}
		return nil
	}
	if st.isCoordinator() {
		if err := transport.SendMsg(next, pt.Encode(transport.NewBuilder())); err != nil {
			return fmt.Errorf("multiparty: retract send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return fmt.Errorf("multiparty: retract return: %w", err)
		}
		if err := check(r); err != nil {
			return err
		}
		// Lap 2: release the ring.
		if err := transport.SendMsg(next, pt.Encode(transport.NewBuilder())); err != nil {
			return err
		}
		_, err = transport.RecvMsg(prev)
		return err
	}
	r, err := transport.RecvMsg(prev)
	if err != nil {
		return fmt.Errorf("multiparty: retract recv: %w", err)
	}
	if err := check(r); err != nil {
		return err
	}
	if err := transport.SendMsg(next, pt.Encode(transport.NewBuilder())); err != nil {
		return err
	}
	// Lap 2.
	r2, err := transport.RecvMsg(prev)
	if err != nil {
		return err
	}
	if err := check(r2); err != nil {
		return fmt.Errorf("multiparty: retract release mismatch: %w", err)
	}
	return transport.SendMsg(next, pt.Encode(transport.NewBuilder()))
}

// Run executes one lockstep clustering over the session state, seeded
// with the cross-run pair cache. Result.PairDecisions covers this run
// only (cached pairs included — the decision-level budget convention);
// Result.CachedPairs reports the cache's contribution.
func (rs *RingSession) Run() (*Result, error) {
	st := rs.st
	cfg := st.cfg
	startPairs := st.pairCount.Load()
	startUp := st.ctsUp.Load()
	startDown := st.ctsDown.Load()
	rs.cached.Store(0)
	onPruned := func([2]int) { st.pairCount.Add(1) }
	onCached := func(pr [2]int, in bool) {
		st.pairCount.Add(1)
		rs.cached.Add(1)
	}

	batchOn := st.pairLEBatchOn
	if cfg.Batching != core.BatchModeBatched {
		batchOn = core.PerPairOracle(st.pairLE)
	}
	labels, clusters, err := core.LockstepCluster(len(st.enc), cfg.MinPts, cfg.Parallel,
		rs.cache, onCached, core.PrunedLocalDecider(rs.cellRows, onPruned), batchOn)
	if err != nil {
		return nil, err
	}
	rs.runs++
	up := st.ctsUp.Load() - startUp
	down := st.ctsDown.Load() - startDown
	return &Result{
		Labels:              labels,
		NumClusters:         clusters,
		PairDecisions:       int(st.pairCount.Load() - startPairs),
		CachedPairs:         int(rs.cached.Load()),
		IndexCellCoords:     st.idxCoords,
		CiphertextsSent:     up + down,
		CiphertextsUplink:   up,
		CiphertextsDownlink: down,
	}, nil
}

// circulateCount verifies ring-wide agreement on an appended record
// count: lap 1 carries the coordinator's count for everyone to check,
// lap 2 acknowledges, so no party proceeds into the cell circulation (or
// grows its matrix) on a mismatched batch.
func (st *state) circulateCount(n int) error {
	prev, next := st.prevs[0], st.nexts[0]
	if st.isCoordinator() {
		if err := transport.SendMsg(next, transport.NewBuilder().PutUint(uint64(n))); err != nil {
			return fmt.Errorf("multiparty: append count send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return fmt.Errorf("multiparty: append count return: %w", err)
		}
		got := int(r.Uint())
		if err := r.Err(); err != nil {
			return err
		}
		if got != n {
			return fmt.Errorf("multiparty: append count disagreement: %d vs %d", n, got)
		}
		// Lap 2: release the ring.
		if err := transport.SendMsg(next, transport.NewBuilder().PutUint(uint64(n))); err != nil {
			return err
		}
		_, err = transport.RecvMsg(prev)
		return err
	}
	r, err := transport.RecvMsg(prev)
	if err != nil {
		return fmt.Errorf("multiparty: append count recv: %w", err)
	}
	got := int(r.Uint())
	if err := r.Err(); err != nil {
		return err
	}
	if got != n {
		return fmt.Errorf("multiparty: append count disagreement: %d vs %d (records are shared)", n, got)
	}
	if err := transport.SendMsg(next, transport.NewBuilder().PutUint(uint64(n))); err != nil {
		return err
	}
	// Lap 2.
	r2, err := transport.RecvMsg(prev)
	if err != nil {
		return err
	}
	if int(r2.Uint()) != n || r2.Err() != nil {
		return fmt.Errorf("multiparty: append count release mismatch")
	}
	return transport.SendMsg(next, transport.NewBuilder().PutUint(uint64(n)))
}
