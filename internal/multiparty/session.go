// Streaming sessions for the multiparty extensions. NewRingSession and
// NewMeshSession split establishment (handshake, keys, index
// circulation) from runs exactly like core.Session, and add Append: all
// k parties call the same method sequence concurrently — Run/Append are
// ring- (or mesh-) synchronous group operations, the k-party analogue of
// the two-party control channel — under the same misuse guard
// (core.Guard). Across runs each session keeps the generation tables and
// cross-run comparison caches of the two-party stack: the ring a
// core.RowGens, reusing pair bits (public to every party, so all caches
// agree and the seeded lockstep drivers stay in lock step), the mesh
// core.OwnGens / core.PeerGens, reusing per-(point, peer) region-count
// prefixes with generation-scoped suffix queries.
package multiparty

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// RingSession is one party's half of a long-lived ring (k-party
// vertical) session. Its lifecycle state is the shared-row generation
// table of the two-party vertical family (core.RowGens: window counts,
// pruning cell rows, cross-run pair cache); what is the ring's own is how
// k parties agree on each step — one two-lap circulation (state.circulate)
// before anyone mutates — and the misuse guard is core.Session's.
type RingSession struct {
	st     *state
	rows   *core.RowGens
	guard  core.Guard
	cached atomic.Int64
	runs   int
}

// NewRingSession establishes the ring session; every party must
// construct its session concurrently with a consistent ring.
func NewRingSession(party Party, cfg Config, attrs [][]float64) (*RingSession, error) {
	st, cellRows, err := newRingState(party, cfg, attrs)
	if err != nil {
		return nil, err
	}
	return &RingSession{st: st, rows: core.NewRowGens(len(st.enc), cellRows)}, nil
}

// Runs reports the completed Run calls.
func (rs *RingSession) Runs() int { return rs.runs }

// Every operation below is a group operation — all k parties call the
// same method concurrently — and runs under the guard: a second call
// while one is in flight returns core.ErrConcurrentRun, and once a call
// has failed after touching the ring (disagreement, peer gone, bad
// tombstone) the parties are desynchronised and every later call returns
// core.ErrSessionClosed. Failures of purely local validation leave the
// session usable.

// Append absorbs one batch of appended records: every party calls Append
// concurrently with its own column slice of the same new records (counts
// are verified ring-wide). The new rows' cell coordinates circulate
// exactly like the establishment matrix, extending every
// party's copy identically; decided-pair bits for existing records stay
// valid (distances are immutable), so the next Run pays only for pairs
// involving new records.
func (rs *RingSession) Append(attrs [][]float64) error {
	st := rs.st
	return rs.guard.Do(func() (bool, error) {
		enc, err := st.encode(attrs)
		if err != nil {
			return false, err
		}
		// No party proceeds into the cell circulation (or grows its matrix)
		// on a mismatched batch.
		err = st.agree("append count", transport.NewBuilder().PutUint(uint64(len(enc))), func(r *transport.Reader) error {
			if got := int(r.Uint()); r.Err() != nil || got != len(enc) {
				return fmt.Errorf("disagreement: %d vs %d records (records are shared)", len(enc), got)
			}
			return nil
		})
		if err != nil {
			return true, err
		}
		cells, err := st.circulateCells(enc)
		if err != nil {
			return true, err
		}
		st.enc = append(st.enc, enc...)
		rs.rows.Append(len(enc), cells)
		return true, nil
	})
}

// Expire slides the ring window: the oldest gens append generations —
// and every record they hold — leave on all parties at once. Every
// party must call Expire concurrently with the same argument; a
// spatial.TombstoneDelta circulates so the ring agrees on exactly which
// generations die before anyone mutates state. Locally the expired
// records leave the attribute matrix and the generation table, whose
// pair cache drops every bit touching an expired record while remapping
// the survivors — all parties hold identical caches, so the seeded
// lockstep drivers stay in lock step across expiries.
func (rs *RingSession) Expire(gens int) error {
	st := rs.st
	return rs.guard.Do(func() (bool, error) {
		dead, live := rs.rows.Window()
		if gens < 1 || gens > live {
			return false, fmt.Errorf("multiparty: expire %d of %d live generations", gens, live)
		}
		td := spatial.TombstoneDelta{From: dead, N: gens}
		err := st.agree("expire", td.Encode(transport.NewBuilder()), func(r *transport.Reader) error {
			got, err := spatial.DecodeTombstoneDelta(r, dead, live)
			if err == nil && got.N != gens {
				err = fmt.Errorf("disagreement: %d vs %d generations", gens, got.N)
			}
			return err
		})
		if err != nil {
			return true, err
		}
		st.enc = st.enc[rs.rows.Expire(gens):]
		return true, nil
	})
}

// Retract removes individual live records from the ring window:
// records are shared rows under vertical partitioning, so every party
// must call Retract concurrently with the same strictly ascending list
// of live record indices. A spatial.PointTombstone circulates and each
// party checks the circulated ids id-for-id against its own argument
// before anyone mutates state — no party compacts rows the others are
// keeping. Locally the retracted rows leave the attribute matrix and the
// generation table (surviving indices renumber immediately, the pair
// cache drops every bit touching a retracted record and remaps the
// survivors identically on all parties).
func (rs *RingSession) Retract(ids []int) error {
	st := rs.st
	return rs.guard.Do(func() (bool, error) {
		if len(ids) == 0 {
			return false, fmt.Errorf("multiparty: retract needs at least one record")
		}
		if err := spatial.ValidateRetractIDs(ids, rs.rows.N); err != nil {
			return false, err
		}
		pt := spatial.PointTombstone{IDs: ids}
		err := st.agree("retract", pt.Encode(transport.NewBuilder()), func(r *transport.Reader) error {
			got, err := spatial.DecodePointTombstone(r, rs.rows.N)
			if err == nil && !slices.Equal(got.IDs, ids) {
				err = fmt.Errorf("disagreement: records %v vs %v (records are shared)", ids, got.IDs)
			}
			return err
		})
		if err != nil {
			return true, err
		}
		st.enc = core.CompactRows(st.enc, ids)
		rs.rows.Retract(ids)
		return true, nil
	})
}

// Run executes one lockstep clustering over the session state, seeded
// with the cross-run pair cache. Result.PairDecisions covers this run
// only (cached pairs included — the decision-level budget convention);
// Result.CachedPairs reports the cache's contribution.
func (rs *RingSession) Run() (res *Result, err error) {
	err = rs.guard.Do(func() (bool, error) {
		res, err = rs.run(rs.st.chunkLE)
		return true, err
	})
	return res, err
}

// run is one lockstep clustering whose chunks batchOn decides.
func (rs *RingSession) run(batchOn func(ch int, pairs [][2]int) ([]bool, error)) (*Result, error) {
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

	// The comparison edge is the coordinator's: it holds the Alice engine,
	// every other party the Bob engine over the same key and domain.
	var cmpBytes int
	if st.isCoordinator() {
		cmpBytes = st.cmpA[0].FrameBytes()
	} else {
		cmpBytes = st.cmpB[0].FrameBytes()
	}
	labels, clusters, err := core.LockstepCluster(len(st.enc), cfg.MinPts, cfg.Parallel, cmpBytes,
		rs.rows.Cache, onCached, core.PrunedLocalDecider(rs.rows.CellRows, onPruned), batchOn)
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
