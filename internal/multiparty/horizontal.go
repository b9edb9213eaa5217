package multiparty

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dbscan"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// The k-party horizontal extension generalizes Algorithm 3/4: every party
// holds complete records and runs its own driving pass in index order;
// during party p's pass each other party answers HDP region queries, so a
// query point's density count is |own neighbours| + Σ_q |peer q's
// neighbours|. As in the two-party protocol, expansion walks only the
// driver's own points and cluster ids are local to each party.
//
// The mesh is the paper's two-party HDP sub-protocol run on each of the
// k·(k−1)/2 edges: an edge is a core.Pair — core's handshake (at core's
// handshakeVersion) with proto "mesh" and the lower party index as
// RoleAlice, core's index exchange and core's settle step (Pair.Settle /
// Pair.SettleServe: every region sub-query of a pass decided up front, in
// whole-row chunks) — over one core.OwnGens per party, one core.PeerGens
// per peer, and one core.KeySet per party: core.NewPair is handed its
// keys, and a party draws its set once (core.DrawKeySet) and hands it to
// all k−1 of its edges, so a mesh runs on k keys, not k·(k−1). What lives
// here is only what is k-party: which peers a pass settles with, the walk
// over their caches, the pass order, and the k-way agreement of the
// lifecycle operations.
//
// Disclosure note: pairwise composition reveals per-peer
// neighbour counts to the driver (finer-grained than the two-party
// protocol's single count), plus the HDP dot products to each responder —
// the natural cost of composing the paper's two-party building block.
// One key set per party adds nothing to that in the semi-honest model:
// each peer sees only semantically secure ciphertexts under the party's
// key, however many edges share it, and the public key tells a peer
// nothing it cannot compute from the key alone — that two edges end at
// one party, the topology says already.

// HorizontalParty describes one participant in the k-party horizontal
// protocol, connected to every other party.
type HorizontalParty struct {
	Index int
	K     int
	// Conns[q] connects to party q; Conns[Index] is unused (may be nil).
	Conns []transport.Conn
}

func (p HorizontalParty) validate() error {
	if p.K < 2 {
		return fmt.Errorf("multiparty: need ≥ 2 parties, got %d", p.K)
	}
	if p.Index < 0 || p.Index >= p.K {
		return fmt.Errorf("multiparty: index %d outside [0,%d)", p.Index, p.K)
	}
	if len(p.Conns) != p.K {
		return fmt.Errorf("multiparty: party %d has %d connections, want %d", p.Index, len(p.Conns), p.K)
	}
	for q, c := range p.Conns {
		if q != p.Index && c == nil {
			return fmt.Errorf("multiparty: party %d missing connection to %d", p.Index, q)
		}
	}
	return nil
}

// HorizontalResult is one party's output: labels for its own points.
type HorizontalResult struct {
	Labels      []int
	NumClusters int
	// RegionQueries counts the driving-side region queries this party
	// issued (each reveals k−1 per-peer neighbour counts to it); cached
	// queries count too — the decision-level budget convention.
	RegionQueries int
	// CachedCounts counts the per-peer membership predicates a
	// MeshSession run answered from its cross-run cache instead of
	// running HDP — zero for one-shot runs and a session's first run.
	CachedCounts int64
	// CiphertextsSent counts the Paillier ciphertexts this party put on
	// the wire during the run (HDP frames in both roles plus its side of
	// the masked comparisons) — the quantity slot packing compresses.
	// YMPP RSA payloads are not counted. Always equal to
	// CiphertextsUplink + CiphertextsDownlink; retained as the
	// compatibility sum.
	CiphertextsSent int64
	// CiphertextsUplink is the request-leg share: the encrypted
	// coordinates this party scatters when serving HDP under its own key
	// plus its driving-side comparison uplinks — the leg "full" packing
	// exists to shrink (the driver's per-query comparison operands are
	// all equal, so the grouped uplink collapses them to one ciphertext).
	CiphertextsUplink int64
	// CiphertextsDownlink is the response-leg share: the dot-product
	// replies this party sends against a peer's encrypted coordinates plus its
	// responding-side comparison replies — the leg "slots" packing
	// shrinks.
	CiphertextsDownlink int64
}

// pairSession is one mesh edge: the core.Pair shared with one specific
// peer, our view of that peer's generations (with the driver-side cache
// of region-count segments keyed by our point index), and the edge's
// split-threshold comparators.
type pairSession struct {
	*core.Pair
	peer *core.PeerGens
	cmpA compare.Alice // we drive: we hold the left value
	cmpB compare.Bob   // we respond: peer holds the left value
}

// RunHorizontal executes the k-party horizontal protocol for one party.
// All parties must call it concurrently over a consistent mesh. This is
// the one-shot form; NewMeshSession adds streaming appends and cross-run
// caching.
func RunHorizontal(party HorizontalParty, cfg Config, points [][]float64) (*HorizontalResult, error) {
	ms, err := NewMeshSession(party, cfg, points)
	if err != nil {
		return nil, err
	}
	return ms.Run()
}

// MeshSession is one party's long-lived mesh (k-party horizontal)
// session: establishment once, many Run calls, Append between them —
// every party calls the same method sequence concurrently, under the
// same misuse guard as core.Session and RingSession (one operation at a
// time; a failure after any edge exchange began closes the session).
type MeshSession struct {
	h     *hState
	guard core.Guard
	runs  int
}

// NewMeshSession establishes the pairwise key/handshake/index state with
// every peer.
func NewMeshSession(party HorizontalParty, cfg Config, points [][]float64) (*MeshSession, error) {
	h, err := newMeshState(party, cfg, points)
	if err != nil {
		return nil, err
	}
	return &MeshSession{h: h}, nil
}

// Runs reports the completed Run calls.
func (ms *MeshSession) Runs() int { return ms.runs }

// Run executes one k-pass clustering (each party drives once, in index
// order) over the session state, reusing every cached region-count
// prefix.
func (ms *MeshSession) Run() (res *HorizontalResult, err error) {
	err = ms.guard.Do(func() (bool, error) {
		res, err = ms.run()
		return true, err
	})
	return res, err
}

func (ms *MeshSession) run() (*HorizontalResult, error) {
	h := ms.h
	h.queries, h.cached = 0, 0
	h.eachPeer(func(_ int, sess *pairSession) error {
		sess.ResetRun()
		return nil
	})
	var labels []int
	var clusters int
	var err error
	for pass := 0; pass < h.party.K; pass++ {
		if pass == h.party.Index {
			labels, clusters, err = h.drive()
		} else {
			err = h.respond(pass)
		}
		if err != nil {
			return nil, fmt.Errorf("multiparty: pass %d: %w", pass, err)
		}
	}
	ms.runs++
	res := &HorizontalResult{Labels: labels, NumClusters: clusters,
		RegionQueries: h.queries, CachedCounts: h.cached}
	h.eachPeer(func(_ int, sess *pairSession) error {
		up, down := sess.Ciphertexts()
		res.CiphertextsUplink += up
		res.CiphertextsDownlink += down
		return nil
	})
	res.CiphertextsSent = res.CiphertextsUplink + res.CiphertextsDownlink
	return res, nil
}

// Append absorbs this party's appended batch: every party calls Append
// concurrently with its own new points (any count, including none). Each
// mesh edge swaps the batch count plus a spatial.GridDelta of the touched
// cells, both parties sending at once (core.Pair.Swap); the points
// themselves never cross the wire, and cached prefix counts stay valid
// because appended generations only extend the suffix.
func (ms *MeshSession) Append(points [][]float64) error {
	h := ms.h
	return ms.guard.Do(func() (bool, error) {
		batch, err := h.own.Encode(points)
		if err != nil {
			return false, err
		}
		delta, err := h.own.Append(batch)
		if err != nil {
			return false, err
		}
		return true, h.eachPeer(func(q int, sess *pairSession) error {
			msg := transport.NewBuilder().PutUint(uint64(len(batch)))
			spatial.GridDelta{Gen: h.own.Gens(), Dir: delta}.Encode(msg)
			r, err := sess.Swap("hdp.idx", msg)
			if err != nil {
				return fmt.Errorf("multiparty: append exchange with %d: %w", q, err)
			}
			peerCount := int(r.Uint())
			if err := r.Err(); err != nil {
				return err
			}
			if peerCount < 0 {
				return fmt.Errorf("multiparty: party %d appends %d points", q, peerCount)
			}
			if err := sess.ReadIndexDelta(r, sess.peer); err != nil {
				return fmt.Errorf("multiparty: append delta from %d: %w", q, err)
			}
			sess.peer.Append(peerCount)
			return nil
		})
	})
}

// Expire slides the mesh window: the oldest gens generations leave on
// every party at once. All parties must call Expire concurrently with
// the same argument — like Append, the exchange is symmetric. Each mesh
// edge swaps a spatial.TombstoneDelta, both parties sending at once,
// pinned to the shared dead prefix, so an endpoint that drifted out of
// generation lockstep fails loudly instead of silently diverging; the
// expiry applies only after every edge agreed (core.OwnGens.Expire /
// core.PeerGens.Expire: expired generations become husks, generation
// numbers are never reused).
func (ms *MeshSession) Expire(gens int) error {
	h := ms.h
	return ms.guard.Do(func() (bool, error) {
		dead, live := h.own.Window()
		if gens < 1 || gens > live {
			return false, fmt.Errorf("multiparty: expire %d of %d live generations", gens, live)
		}
		td := spatial.TombstoneDelta{From: dead, N: gens}
		if err := h.eachPeer(func(q int, sess *pairSession) error {
			r, err := sess.Swap("session.op", td.Encode(transport.NewBuilder()))
			if err != nil {
				return fmt.Errorf("multiparty: tombstone exchange with %d: %w", q, err)
			}
			peerTd, err := spatial.DecodeTombstoneDelta(r, dead, live)
			if err != nil {
				return fmt.Errorf("multiparty: tombstone from %d: %w", q, err)
			}
			if peerTd.N != gens {
				return fmt.Errorf("multiparty: party %d expires %d generations, we expire %d", q, peerTd.N, gens)
			}
			return nil
		}); err != nil {
			return true, err
		}
		removed, err := h.own.Expire(gens)
		if err != nil {
			return true, err
		}
		return true, h.eachPeer(func(_ int, sess *pairSession) error {
			sess.peer.Expire(dead, gens, removed)
			return nil
		})
	})
}

// Retract deletes individual records from the live mesh window: every
// party calls Retract concurrently with the strictly ascending live
// indices of its *own* points to delete (any count, including none —
// a party with nothing to retract participates with an empty list).
// Each mesh edge swaps a validated spatial.PointTombstone, both parties
// sending at once; the retraction applies only after every edge agreed,
// so a malformed tombstone fails the exchange loudly before any state
// changes (core.OwnGens.Retract / core.PeerGens.Retract: own rows compact
// to the numbering a fresh session over the survivors would use, and the
// cached region-count segments die exactly where a retracted point could
// sit inside them).
func (ms *MeshSession) Retract(ids []int) error {
	h := ms.h
	return ms.guard.Do(func() (bool, error) {
		if err := spatial.ValidateRetractIDs(ids, len(h.own.Enc)); err != nil {
			return false, fmt.Errorf("multiparty: retract: %w", err)
		}
		peerIDs := make([][]int, h.party.K)
		if err := h.eachPeer(func(q int, sess *pairSession) error {
			msg := spatial.PointTombstone{IDs: ids}.Encode(transport.NewBuilder())
			r, err := sess.Swap("session.op", msg)
			if err != nil {
				return fmt.Errorf("multiparty: retract exchange with %d: %w", q, err)
			}
			tomb, err := spatial.DecodePointTombstone(r, sess.peer.N)
			if err != nil {
				return fmt.Errorf("multiparty: retract tombstone from %d: %w", q, err)
			}
			peerIDs[q] = tomb.IDs
			return nil
		}); err != nil {
			return true, err
		}
		if err := h.own.Retract(ids); err != nil {
			return true, err
		}
		return true, h.eachPeer(func(q int, sess *pairSession) error {
			sess.peer.Retract(ids, peerIDs[q])
			return nil
		})
	})
}

// hState is one party's runtime for the k-party horizontal protocol.
type hState struct {
	party    HorizontalParty
	cfg      core.Config
	own      *core.OwnGens
	epsSq    int64          // Eps², clamped to the dist² bound (agreed on every edge)
	sessions []*pairSession // indexed by peer; nil at our own index
	queries  int            // region queries the walk asked this run
	cached   int64          // membership predicates served from cache this run
}

// newMeshState performs the mesh establishment: one key set for the
// party (core.DrawKeySet, drawn once before the edge loop), then one
// core.Pair per peer, in party order, all over that key set and the one
// own-side generation table — k keys per mesh, not k·(k−1).
func newMeshState(party HorizontalParty, cfg Config, points [][]float64) (*hState, error) {
	if err := party.validate(); err != nil {
		return nil, err
	}
	cc, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cc.Parallel > 1 && cc.Random != nil {
		// The driving pass queries all peers concurrently, each over its
		// own Pair; the configured reader is not assumed goroutine-safe.
		cc.Random = transport.LockedReader(cc.Random)
	}
	own, err := core.NewOwnGens(cc, points)
	if err != nil {
		return nil, err
	}
	keys, err := core.DrawKeySet(cc)
	if err != nil {
		return nil, err
	}
	h := &hState{party: party, cfg: cc, own: own, sessions: make([]*pairSession, party.K)}
	for q, conn := range party.Conns {
		if q == party.Index {
			continue
		}
		role := core.RoleAlice
		if q < party.Index {
			role = core.RoleBob
		}
		sess := &pairSession{}
		if sess.Pair, sess.peer, err = core.NewPair(conn, cc, keys, role, "mesh", own); err == nil {
			sess.cmpA, sess.cmpB, err = sess.DistEngines()
		}
		if err != nil {
			return nil, fmt.Errorf("multiparty: edge to party %d: %w", q, err)
		}
		h.sessions[q], h.epsSq = sess, sess.EpsSq()
	}
	return h, nil
}

// eachPeer calls f for every mesh edge in party order, stopping at the
// first error.
func (h *hState) eachPeer(f func(q int, sess *pairSession) error) error {
	for q, sess := range h.sessions {
		if sess == nil {
			continue
		}
		if err := f(q, sess); err != nil {
			return err
		}
	}
	return nil
}

// drive runs this party's Algorithm 3/4 pass in the horizontal shape's two
// steps. Settle: against every peer, every region sub-query the edge's
// cache does not answer — one per (own point, peer generation) with
// candidates — is decided up front over the edge's W = Config.Parallel
// channels (core.Pair.Settle); with W > 1 the edges settle concurrently,
// each a complete two-party exchange, so the step costs the slowest
// peer's chunks instead of the sum. Walk: dbscan.ClusterCore over caches
// that now answer every query, so it sends nothing — a fully-cached
// query, an empty generation and a sub-query without candidates have
// never cost a mesh edge a frame, its responders keep no per-query
// Ledger. The sub-query multiset, the per-peer counts, and every
// disclosure class do not depend on W.
func (h *hState) drive() ([]int, int, error) {
	settle := func(q int, sess *pairSession) error {
		if err := sess.Settle(h.own, sess.peer, sess.cmpA, false); err != nil {
			return fmt.Errorf("settling with party %d: %w", q, err)
		}
		return nil
	}
	var err error
	if h.cfg.Parallel == 1 {
		err = h.eachPeer(settle)
	} else {
		errs := make([]error, h.party.K)
		var wg sync.WaitGroup
		h.eachPeer(func(q int, sess *pairSession) error {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[q] = settle(q, sess)
			}()
			return nil
		})
		wg.Wait()
		err = errors.Join(errs...)
	}
	if err != nil {
		return nil, 0, err
	}
	labels, clusters := dbscan.ClusterCore(len(h.own.Enc),
		func(i int) []int { return h.own.RegionQuery(i, h.epsSq) },
		func(i int, nbrs []int) bool { return len(nbrs)+h.totalCount(i) >= h.cfg.MinPts })
	return labels, clusters, h.eachPeer(func(_ int, sess *pairSession) error { return sess.SendDone("hdp.op") })
}

// totalCount answers one region query of our point i: its neighbours
// summed across all peers, each peer's count read from the edge's settled
// cache (one [g, g+1) segment per peer generation, so an expiry drops
// exactly the dead generations' segments and every survivor stays
// contiguous from the new window edge). What the cache held before this
// run's settle step counts as cached — all of it from the point's second
// query on.
func (h *hState) totalCount(i int) int {
	h.queries++
	total := 0
	h.eachPeer(func(_ int, sess *pairSession) error {
		count, cached := sess.peer.Settled(i, h.own.Dead)
		h.cached += int64(cached)
		total += count
		return nil
	})
	return total
}

// respond serves the driving party's pass: one responder worker per
// channel of the edge (core.Pair.Serve), each answering the settle chunks
// the driver dealt to its channel — chunk c travels on channel c mod W, so
// each channel's traffic stays strictly sequential.
func (h *hState) respond(driver int) error {
	sess := h.sessions[driver]
	return sess.Serve("hdp.op", map[uint64]core.OpServer{
		core.OpSettle: func(conn transport.Conn, rng core.PermSource, r *transport.Reader) error {
			return sess.SettleServe(conn, rng, sess.cmpB, h.own, sess.peer, r)
		},
	})
}

// NewLocalMesh builds a full in-process mesh for k parties: mesh[p][q] is
// party p's connection to party q.
func NewLocalMesh(k int) [][]transport.Conn {
	mesh := make([][]transport.Conn, k)
	for p := range mesh {
		mesh[p] = make([]transport.Conn, k)
	}
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			a, b := transport.Pipe()
			mesh[p][q] = a
			mesh[q][p] = b
		}
	}
	return mesh
}
