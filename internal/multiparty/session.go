// Sessions for the multiparty extensions. NewRingSession and
// NewMeshSession split establishment (handshake, keys, index
// circulation) from runs exactly like core.Session: all k parties call
// Run concurrently — a ring- (or mesh-) synchronous group operation, the
// k-party analogue of the two-party control channel — under the same
// misuse guard (core.Guard). Across runs each session keeps the
// generation tables and cross-run comparison caches of the two-party
// stack: the ring a core.RowGens, reusing pair bits (public to every
// party, so all caches agree and the seeded lockstep drivers stay in lock
// step), the mesh core.OwnGens / core.PeerGens, reusing per-(point, peer)
// region counts.
package multiparty

import (
	"sync/atomic"

	"repro/internal/core"
)

// RingSession is one party's half of a ring (k-party vertical) session.
// Its state is the shared-row generation table of the two-party vertical
// family (core.RowGens: the record count, pruning cell rows, cross-run
// pair cache); what is the ring's own is how k parties agree — one
// two-lap circulation (state.circulate) — and the misuse guard is
// core.Session's.
type RingSession struct {
	st     *state
	rows   *core.RowGens
	guard  core.Guard
	cached atomic.Int64
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

// Run executes one lockstep clustering over the session state, seeded
// with the cross-run pair cache. It is a group operation — all k parties
// call it concurrently — and runs under the guard: a second call while one
// is in flight returns core.ErrConcurrentRun, and once a Run has failed
// the parties are desynchronised and every later call returns
// core.ErrSessionClosed. Result.PairDecisions covers this run only (cached
// pairs included — the decision-level budget convention);
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
