package multiparty

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dbscan"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// The per-query mesh driver as it stood before the settle step (core
// handshake v11): one live region query at a time, every query a per-peer
// sweep of per-generation sub-queries, each its own op frame + MP round +
// comparison round on the edge. Kept verbatim — apart from the names, from
// the counters it now owns itself (hState's are no longer atomic), from
// the op frame, which core.Pair.QueryFrame built and HDPCount sent, from
// the walk, dbscan.ClusterCore on channel 0 of every edge (labels and the
// counters do not depend on W), and from the rounds after the op frame:
// core's masked per-sub-query round left production (handshake v14), and
// this package cannot reach the Pair state it ran on, so a sub-query runs
// core's one chunk exchange (HDPCount / HDPServe) as a chunk of one — as
// the oracle TestMeshSettleMatchesPerQueryDriver runs the same session
// through.

// opPerQuery was core.OpQuery, op code 1.
const opPerQuery uint64 = 1

type perQueryMesh struct {
	h       *hState
	queries atomic.Int64
	cached  atomic.Int64
}

// run is MeshSession.run on the per-query driver.
func (m *perQueryMesh) run() (*HorizontalResult, error) {
	h := m.h
	m.queries.Store(0)
	m.cached.Store(0)
	h.eachPeer(func(_ int, sess *pairSession) error {
		sess.ResetRun()
		return nil
	})
	var labels []int
	var clusters int
	var err error
	for pass := 0; pass < h.party.K; pass++ {
		if pass == h.party.Index {
			labels, clusters, err = m.drive()
		} else {
			err = m.respond(pass)
		}
		if err != nil {
			return nil, fmt.Errorf("multiparty: pass %d: %w", pass, err)
		}
	}
	return &HorizontalResult{Labels: labels, NumClusters: clusters,
		RegionQueries: int(m.queries.Load()), CachedCounts: m.cached.Load()}, nil
}

func (m *perQueryMesh) drive() ([]int, int, error) {
	h := m.h
	var err error
	labels, clusters := dbscan.ClusterCore(len(h.own.Enc),
		func(i int) []int { return h.own.RegionQuery(i, h.epsSq) },
		func(i int, nbrs []int) bool {
			if err != nil {
				return false
			}
			var remote int
			remote, err = m.totalCountOn(0, i)
			return len(nbrs)+remote >= h.cfg.MinPts
		})
	if err != nil {
		return nil, 0, err
	}
	return labels, clusters, h.eachPeer(func(_ int, sess *pairSession) error { return sess.SendDone("hdp.op") })
}

func (m *perQueryMesh) totalCountOn(t, i int) (int, error) {
	h := m.h
	m.queries.Add(1)
	counts := make([]int, h.party.K)
	errs := make([]error, h.party.K)
	var wg sync.WaitGroup
	h.eachPeer(func(q int, sess *pairSession) error {
		if h.cfg.Parallel == 1 {
			counts[q], errs[q] = m.queryPeer(sess, t, i)
			return errs[q]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[q], errs[q] = m.queryPeer(sess, t, i)
		}()
		return nil
	})
	wg.Wait()
	total := 0
	for q, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("querying party %d: %w", q, err)
		}
		total += counts[q]
	}
	return total, nil
}

func (m *perQueryMesh) queryPeer(sess *pairSession, t, i int) (int, error) {
	h := m.h
	peer := sess.peer
	if peer.N == 0 {
		return 0, nil
	}
	count, fromGen := peer.Covered(i)
	m.cached.Add(int64(peer.N - peer.Suffix(fromGen)))
	x := h.own.Enc[i]
	for g := fromGen; g < len(peer.Count); g++ {
		fresh := 0
		if q := sess.SubQuery(peer, x, i, g); q.NCand > 0 {
			conn := sess.Conns[t]
			msg := transport.NewBuilder().PutUint(opPerQuery).PutUint(uint64(g)).PutUint(uint64(g + 1))
			sess.Announce(msg, q)
			if err := transport.SendMsg(conn, msg); err != nil {
				return 0, err
			}
			counts, err := sess.HDPCount(t, sess.cmpA[t], h.own.Enc, []core.SubQuery{q})
			if err != nil {
				return 0, err
			}
			fresh = counts[0]
		}
		count += fresh
		peer.Record(i, g, fresh)
	}
	return count, nil
}

func (m *perQueryMesh) respond(driver int) error {
	sess := m.h.sessions[driver]
	return sess.Serve("hdp.op", map[uint64]core.OpServer{
		opPerQuery: func(ch int, rng core.PermSource, r *transport.Reader) error {
			return m.serveQuery(sess, ch, rng, r)
		},
	})
}

func (m *perQueryMesh) serveQuery(sess *pairSession, ch int, rng core.PermSource, r *transport.Reader) error {
	h := m.h
	fromGen := int(r.Uint())
	toGen := int(r.Uint())
	if r.Err() != nil {
		return r.Err()
	}
	if gens := h.own.Gens(); fromGen < h.own.Dead || toGen > gens || fromGen >= toGen {
		return fmt.Errorf("multiparty: query span %d..%d of %d generations (%d dead)", fromGen, toGen, gens, h.own.Dead)
	}
	pts, nDummy, err := sess.ReadPrunedOp(r, h.own, fromGen, toGen)
	if err != nil {
		return err
	}
	// The sub-query's candidates and padding under one fresh permutation (a
	// dummy is a nil point): the chunk's only row.
	cands := make([][]int64, len(pts)+nDummy)
	for i, pi := range rng.Perm(len(cands)) {
		if pi < len(pts) {
			cands[i] = pts[pi]
		}
	}
	return sess.HDPServe(ch, sess.cmpB[ch], [][][]int64{cands})
}

// countedAlice counts the comparison instances a driver decides on one
// edge, whichever entry point the driver uses.
type countedAlice struct {
	compare.Alice
	n *atomic.Int64
}

func (c countedAlice) BatchLess(conn transport.Conn, as []int64) ([]bool, error) {
	c.n.Add(int64(len(as)))
	return c.Alice.BatchLess(conn, as)
}

func (c countedAlice) BatchLessRows(conn transport.Conn, as []int64, rows []int) ([]bool, error) {
	c.n.Add(int64(len(as)))
	return c.Alice.BatchLessRows(conn, as, rows)
}

// meshStage is what one party can count after one Run.
type meshStage struct {
	res  *HorizontalResult
	cmps int64 // comparison instances it decided as a driver, all edges
}

// meshDiffPoints is the differential's data, [party][point].
var meshDiffPoints = [][][]float64{
	{{1, 1}, {2, 1}, {9, 9}, {3, 3}},
	{{1, 2}, {9, 8}},
	{{2, 2}, {8, 9}, {2, 3}},
}

// runMeshLifecycle runs a three-party mesh twice — cold, then a re-Run the
// caches answer whole — on the settle schedule or on the per-query driver,
// and returns each party's stages and, at the end, what its cache answers
// for every own point on every edge.
func runMeshLifecycle(t *testing.T, cfg Config, perQuery bool) (stages [][]meshStage, caches [][][2]int) {
	t.Helper()
	const k = 3
	mesh := NewLocalMesh(k)
	stages, caches = make([][]meshStage, k), make([][][2]int, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for p := 0; p < k; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				for q, c := range mesh[p] {
					if q != p {
						c.Close()
					}
				}
			}()
			ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, meshDiffPoints[p])
			if err != nil {
				errs[p] = err
				return
			}
			var cmps atomic.Int64
			ms.h.eachPeer(func(_ int, sess *pairSession) error {
				for c, eng := range sess.cmpA {
					sess.cmpA[c] = countedAlice{eng, &cmps}
				}
				return nil
			})
			oracle := &perQueryMesh{h: ms.h}
			for i := range 2 {
				cmps.Store(0)
				run := ms.Run
				if perQuery {
					run = oracle.run
				}
				res, err := run()
				if err != nil {
					errs[p] = fmt.Errorf("run %d: %w", i, err)
					return
				}
				stages[p] = append(stages[p], meshStage{res, cmps.Load()})
			}
			// The caches, read destructively now that both Runs are over:
			// per edge and own point, what is covered from the live edge.
			ms.h.eachPeer(func(_ int, sess *pairSession) error {
				for i := range ms.h.own.Enc {
					count, upto := sess.peer.Covered(i)
					caches[p] = append(caches[p], [2]int{count, upto})
				}
				return nil
			})
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
	return stages, caches
}

// TestMeshSettleMatchesPerQueryDriver is the mesh half of the settle
// differential (core's TestSettleMatchesPerQueryDriver is the two-party
// half): on every party, at the cold Run and at the re-Run, the settle
// schedule gives the labels, the region-query and cached-count tallies and
// the number of comparison instances of the per-query driver it replaced,
// and it leaves the same caches behind; the re-Run asks no region query
// over the wire. A mesh edge keeps no Ledger a party could read, so there
// is none to compare.
func TestMeshSettleMatchesPerQueryDriver(t *testing.T) {
	for _, engine := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		for _, packing := range []core.PackMode{core.PackOff, core.PackSlots, core.PackFull} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/packing=%s/W=%d", engine, packing, w), func(t *testing.T) {
					cfg := testCfg(engine)
					cfg.Packing, cfg.Parallel = packing, w
					got, gotCaches := runMeshLifecycle(t, cfg, false)
					want, wantCaches := runMeshLifecycle(t, cfg, true)
					var cached, cmps int64
					for p := range got {
						for stage := range got[p] {
							g, w := got[p][stage], want[p][stage]
							at := fmt.Sprintf("party %d stage %d", p, stage)
							if !metrics.ExactMatch(g.res.Labels, w.res.Labels) || g.res.NumClusters != w.res.NumClusters {
								t.Errorf("%s: labels %v (%d clusters), per query %v (%d)", at, g.res.Labels, g.res.NumClusters, w.res.Labels, w.res.NumClusters)
							}
							if g.res.RegionQueries != w.res.RegionQueries || g.res.CachedCounts != w.res.CachedCounts || g.cmps != w.cmps {
								t.Errorf("%s: %d region queries, %d cached counts, %d comparisons; per query %d, %d, %d", at,
									g.res.RegionQueries, g.res.CachedCounts, g.cmps, w.res.RegionQueries, w.res.CachedCounts, w.cmps)
							}
							cached, cmps = cached+g.res.CachedCounts, cmps+g.cmps
						}
						if re := got[p][1]; re.cmps != 0 || re.res.CachedCounts == 0 {
							t.Errorf("party %d re-Run: %d comparisons, %d cached counts; want none compared, the cache answering", p, re.cmps, re.res.CachedCounts)
						}
						if fmt.Sprint(gotCaches[p]) != fmt.Sprint(wantCaches[p]) {
							t.Errorf("party %d: caches end at %v, per query %v", p, gotCaches[p], wantCaches[p])
						}
					}
					if cached == 0 || cmps == 0 {
						t.Errorf("vacuous: %d cached counts and %d comparisons over both Runs", cached, cmps)
					}
				})
			}
		}
	}
}
