package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/spatial"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Role distinguishes the two parties. The paper calls them Alice and Bob;
// protocol functions come in matched Alice/Bob pairs.
type Role uint8

// The two protocol roles.
const (
	RoleAlice Role = iota
	RoleBob
)

func (r Role) String() string {
	if r == RoleAlice {
		return "alice"
	}
	return "bob"
}

// peer returns the opposite role.
func (r Role) peer() Role {
	if r == RoleAlice {
		return RoleBob
	}
	return RoleAlice
}

// handshakeVersion guards against protocol drift between binaries.
// Version 2 added the Batching round-structure parameter; version 3 added
// the Pruning candidate-set parameter and its padding quantum; version 4
// added the Parallel scheduler width (which also pins whether the
// connection is multiplexed) and the session run/close control ops;
// version 5 added the append control op, the streaming index-delta
// rounds, and the generation watermark on horizontal query op frames;
// version 6 added the expire control op and the generation tombstone
// exchange (sliding windows); version 7 added the retract control op and
// the point tombstone exchange (point-level deletion); version 8 added
// the Packing plaintext-encoding parameter (slot-packed ciphertext
// frames); version 9 added the packed comparison uplink ("full"
// packing, a per-batch moded wire form) and the uplink/downlink
// ciphertext split; version 10 made the RSA key conditional on the agreed
// engine (both RSA fields travel empty unless Engine is "ympp"); version
// 11 changed no frame layout but the lockstep schedule — which pairs share
// a vdp.cmp / adp.mp / adp.cmp batch and which channel carries it
// (LockstepCluster: whole-row chunks dealt over the W channels instead of
// one batch per neighbourhood) — and a peer on the old schedule would pair
// batches of different lengths; version 12 changed the horizontal schedule
// the same way — the basic protocol and the mesh settle every region
// sub-query up front, in whole-row chunks announced by a new op frame
// (settle.go), and the walk sends parity frames only — so a peer on the
// per-query schedule would be sent an op it does not know; version 13
// changed the enhanced schedule the same way — an op frame announces a
// chunk of core queries, and the chunk runs one share exchange, lockstep
// selection rounds and one final batch (enhanced.go) — so a peer on the
// per-query form would misread every frame of it; version 14 runs a settle
// chunk as the one row-dot exchange at every packing — under "off" and
// "slots" too, where it was the per-sub-query masked round — so a peer on
// the old wire would expect other frames; version 15 runs a lockstep chunk
// as one exchange at every batching and packing — an arbitrary chunk's
// cross terms are one per-pair dot exchange (mpc.SenderScatterDot), and
// under sequential batching a vertical or arbitrary chunk is the same
// exchange with one comparison at a time — so a peer on the old wire would
// expect per-pair frames; version 16 runs the index exchange under pruning
// "off" and the geometric fallback too, on the one-cell grid
// (CandidateGrid), so every op frame carries the per-query pruned flag,
// and the masked engine has one wire form — replies are biased one-slot
// plaintexts under "off", and a scalar comparison is a batch of one with
// its count prefix — so a peer on the old wire would misread the index
// and comparison frames of those modes; version 17 lays the masked
// replies out column by column and pre-shifts every comparison uplink
// operand to the lowest reply slot it serves (compare/full.go), so a
// peer on the old wire would decide wrong bits without noticing; version
// 18 sends the masked comparison uplink negated and the row-dot uplink
// pre-shifted to its reply slots (mpc.ReceiverRowDot), so a peer on the
// old wire would get wrong dot products and wrong bits without noticing;
// version 19 gives YMPP one wire form — a comparison is always a batch,
// and under sequential batching the engine runs batches of one, each with
// its count prefix — so a sequential YMPP peer on the old wire would
// misread every comparison frame; version 20 makes a horizontal or
// enhanced append one announce/reply pair — the GridDelta of the new
// generation rides in the append op and its reply instead of a separate
// index swap — so a peer on the old wire would wait for a swap that never
// comes; version 21 sizes the vertical and arbitrary comparisons from the
// public cell matrix (verticalDomain, arbitraryDomain) and shifts
// arbitrary's shares by each pair's public L (splitShift), so a peer on
// the old wire would refuse every YMPP comparison's domain and decide
// wrong masked bits; version 22 changed no frame layout but which pairs
// a vertical or arbitrary Run compares — LockstepCluster decides in waves
// only the pairs the labels need (planWave) instead of every undecided
// pair — so a peer on the old schedule would pair chunks of other pairs.
// Mesh edges (internal/multiparty) speak the same frame with proto
// "mesh".
const handshakeVersion = 22

// ErrHandshake reports parameter disagreement between the parties.
var ErrHandshake = errors.New("core: handshake parameter mismatch")

// MaxPoints bounds the live points (records) a party may hold on one edge:
// every point count a peer declares — at the handshake and with every
// append — is checked against it before anything is sized from it, so a
// hostile count fails with ErrPointCount. It is far beyond what the
// quadratic secure-comparison budget of any family can cluster.
const MaxPoints = 1 << 22

// ErrPointCount reports a declared point count past MaxPoints, or one the
// padded index delta declared beside it contradicts (ReadIndexDelta).
var ErrPointCount = errors.New("core: declared point count out of range")

// checkCount converts a point count the peer declared, as it arrived, on
// top of the live points the edge already holds for it.
func checkCount(n uint64, live int) (int, error) {
	if live < 0 || live > MaxPoints || n > uint64(MaxPoints-live) {
		return 0, fmt.Errorf("%w: %d points on top of %d live, limit %d", ErrPointCount, n, live, MaxPoints)
	}
	return int(n), nil
}

// ReadCount reads a point count the peer declared in an append frame and
// checks it (checkCount); live is what the peer already holds.
func ReadCount(r *transport.Reader, live int) (int, error) {
	n := r.Uint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	return checkCount(n, live)
}

// Pair is one party's half of one two-party edge: the keys, agreed
// parameters, worker channels, crypto pool, randomness and per-run
// counters every sub-protocol of the edge runs on. A two-party Session
// is a lifecycle on top of one Pair; a k-party mesh
// (internal/multiparty) holds one Pair per peer and drives the same HDP
// steps (hdp.go) over each.
type Pair struct {
	cfg    Config
	role   Role
	epsSq  int64
	dim    int   // full (virtual) record dimension m
	bound  int64 // inclusive max of any pairwise dist² = m·MaxCoord²
	shareV int64 // §5 share mask magnitude: v ∈ [0, shareV)

	// Conns are the edge's W = Config.Parallel worker channels: the bare
	// connection for W = 1, W multiplexed channels otherwise. Conns[0]
	// carries the handshake, control ops and index exchanges.
	Conns []transport.Conn

	// The RSA halves exist only under the YMPP engine, the one that reads
	// them; under "masked" they stay nil.
	paiKey  *paillier.PrivateKey
	rsaKey  *yao.RSAKey
	peerPai *paillier.PublicKey
	peerRSA *yao.RSAPublicKey

	// pool is the crypto worker pool every batch op of this pair runs
	// on: the process-shared bounded pool on a multi-session server
	// (Config.Pool, injected by SessionManager.Configure), or nil for
	// paillier's process-wide default pool.
	pool *paillier.Pool

	// streams[c] is what every draw on worker channel c reads (the doc's
	// "Randomness").
	streams []io.Reader

	// The candidate grid (CandidateGrid): cellW is its cell width and
	// quantum the padding granularity of its directories — the Eps grid
	// under grid pruning, the one-cell grid otherwise. The generational
	// index state itself lives in OwnGens / PeerGens (gens.go).
	cellW   int64
	quantum int

	// rdPeer / rdOwn size the dot-product frames of a settle chunk and of
	// an arbitrary chunk's cross terms: a slot holds one exact cross dot
	// product, |Σ x·y| ≤ bound, under the peer's key (rdPeer, the replies we
	// fold as sender) or our own (rdOwn, the values we encrypt as
	// receiver). Derived once per horizontal or arbitrary pair by
	// rowDotPackers; both ends agree because the geometry is a function of
	// the exchanged keys and handshake-agreed parameters.
	rdPeer, rdOwn *encoding.Packer

	// cmpCount tallies secure comparison instances executed by this party;
	// cmpCached tallies predicates answered from the session's cross-run
	// comparison cache instead. Atomic because parallel workers
	// (Config.Parallel > 1) count concurrently.
	cmpCount  atomic.Int64
	cmpCached atomic.Int64

	// ctsUp/ctsDown tally Paillier ciphertexts this party put on the wire,
	// split by protocol direction: ctsUp counts request-leg payloads (the
	// operands that open a sub-protocol — comparison uplinks, the
	// encrypted vectors an mpc receiver scatters) and ctsDown counts
	// response-leg payloads (masked replies computed against a peer's
	// operands). Their sum is the Result.CiphertextsSent metric; the split
	// feeds CiphertextsUplink/CiphertextsDownlink, the quantities the
	// "slots" and "full" packing modes shrink on opposite legs. YMPP RSA
	// payloads are not counted. Comparison-engine traffic is counted by
	// the engines themselves (compare.Edge Up/Down hooks) because the
	// "full" uplink cost depends on runtime batch content.
	ctsUp   atomic.Int64
	ctsDown atomic.Int64

	// ledMu guards ledger once parallel workers record disclosures
	// concurrently; every update goes through led().
	ledMu  sync.Mutex
	ledger Ledger
}

// led applies one ledger update under the session's ledger lock.
func (s *Pair) led(f func(l *Ledger)) {
	s.ledMu.Lock()
	f(&s.ledger)
	s.ledMu.Unlock()
}

// takeLedger returns the accumulated ledger and resets it — the per-run /
// setup split the long-lived Session uses.
func (s *Pair) takeLedger() Ledger {
	s.ledMu.Lock()
	defer s.ledMu.Unlock()
	l := s.ledger
	s.ledger = Ledger{}
	return l
}

// ResetRun zeroes the per-run accounting (comparison and ciphertext
// counters, the ledger) at the start of a run.
func (s *Pair) ResetRun() {
	s.cmpCount.Store(0)
	s.cmpCached.Store(0)
	s.ctsUp.Store(0)
	s.ctsDown.Store(0)
	s.takeLedger()
}

// EpsSq returns the integer threshold dist² is compared against (Eps²,
// clamped to the dist² bound).
func (s *Pair) EpsSq() int64 { return s.epsSq }

// Ciphertexts reports the Paillier ciphertexts this party put on the
// edge since ResetRun, split by leg.
func (s *Pair) Ciphertexts() (up, down int64) { return s.ctsUp.Load(), s.ctsDown.Load() }

// channelRng derives the permutation source of one responder worker
// channel (Algorithm 4's SetOfPointsOfBobPermutation). Worker channels
// consume permutations concurrently, so each gets its own source;
// permutations only hide which peer point answered which slot, so labels
// and count-based Ledger classes do not depend on how the draws are
// split. Seeded sessions (tests) get a deterministic source; production
// draws from the channel's crypto stream, never math/rand — response
// permutations are responder-hiding state.
func (s *Pair) channelRng(ch int) PermSource {
	if s.cfg.Seed != 0 {
		return newSeededPerm(uint64(s.cfg.Seed+int64(s.role)+1) + 7919*uint64(ch+1))
	}
	return cryptoPerm{r: s.streams[ch]}
}

// peerInfo is what the handshake learns about the other side.
type peerInfo struct {
	Dim   int // peer's record dimension (own attributes for vertical)
	Count int // peer's record count
}

// Channels splits one edge into its W worker channels: the bare
// connection itself for W = 1, or W multiplexed channels (transport.Mux).
func Channels(conn transport.Conn, w int) []transport.Conn {
	if w <= 1 {
		return []transport.Conn{conn}
	}
	m := transport.NewMux(conn)
	conns := make([]transport.Conn, w)
	for i := range conns {
		conns[i] = m.Channel(uint32(i))
	}
	return conns
}

// handshakeMsg encodes one party's handshake frame. rsaN and rsaE are
// empty unless p.Engine is YMPP.
func handshakeMsg(proto string, role Role, p Params, ownDim, ownCount int, paiPub, rsaN, rsaE []byte) *transport.Builder {
	b := transport.NewBuilder().PutUint(handshakeVersion).PutString(proto).PutUint(uint64(role))
	return p.Encode(b).PutUint(uint64(ownDim)).PutUint(uint64(ownCount)).PutBytes(paiPub).PutBytes(rsaN).PutBytes(rsaE)
}

// establish splits conn into the edge's worker channels, gives each its
// randomness stream (ChannelStreams over cfg.Random), exchanges the
// public halves of keys (a Paillier pair always, an RSA pair only under
// YMPP: DrawKeySet), and verifies that both parties agree on every
// protocol parameter. cfg must be normalised (Config.Normalize). proto
// names the protocol ("horizontal", "vertical", "mesh", ...) so
// mismatched invocations fail fast. ownDim/ownCount describe this
// party's data and are shared with the peer.
func establish(conn transport.Conn, cfg Config, keys KeySet, role Role, proto string, ownDim, ownCount int) (*Pair, peerInfo, error) {
	params, err := cfg.Params()
	if err != nil {
		return nil, peerInfo{}, err
	}
	ympp := cfg.Engine == compare.EngineYMPP
	if keys.Paillier == nil || ympp != (keys.RSA != nil) {
		return nil, peerInfo{}, errors.New("core: key set does not fit the engine")
	}
	streams, err := ChannelStreams(cfg.Random, cfg.Parallel)
	if err != nil {
		return nil, peerInfo{}, err
	}
	s := &Pair{cfg: cfg, role: role, epsSq: params.EpsSq, streams: streams, pool: cfg.Pool, Conns: Channels(conn, cfg.Parallel),
		paiKey: keys.Paillier, rsaKey: keys.RSA}
	var rsaN, rsaE []byte
	if ympp {
		rsaN, rsaE = yao.MarshalRSAPublicKey(&s.rsaKey.RSAPublicKey)
	}

	msg := handshakeMsg(proto, role, params, ownDim, ownCount, paillier.MarshalPublicKey(&s.paiKey.PublicKey), rsaN, rsaE)
	r, err := s.Swap("handshake", msg)
	if err != nil {
		return nil, peerInfo{}, fmt.Errorf("core: handshake exchange: %w", err)
	}
	pVersion := r.Uint()
	pProto := r.String()
	pRole := Role(r.Uint())
	pParams := DecodeParams(r)
	peer := peerInfo{Dim: int(r.Uint())}
	count := r.Uint()
	paiB := r.Bytes()
	rsaNB := r.Bytes()
	rsaEB := r.Bytes()
	if r.Err() != nil {
		return nil, peerInfo{}, fmt.Errorf("core: handshake parse: %w", r.Err())
	}

	switch {
	case pVersion != handshakeVersion:
		return nil, peerInfo{}, fmt.Errorf("%w: version %d vs %d", ErrHandshake, handshakeVersion, pVersion)
	case pProto != proto:
		return nil, peerInfo{}, fmt.Errorf("%w: protocol %q vs %q", ErrHandshake, proto, pProto)
	case pRole != role.peer():
		return nil, peerInfo{}, fmt.Errorf("%w: both parties claim role %v", ErrHandshake, role)
	}
	if err := params.Diff(pParams); err != nil {
		return nil, peerInfo{}, err
	}
	if peer.Count, err = checkCount(count, 0); err != nil {
		return nil, peerInfo{}, fmt.Errorf("core: handshake: %w", err)
	}

	if s.peerPai, err = paillier.UnmarshalPublicKey(paiB); err != nil {
		return nil, peerInfo{}, fmt.Errorf("%w: peer key: %w", ErrHandshake, err)
	}
	if s.peerRSA, err = PeerRSAKey(ympp, rsaNB, rsaEB); err != nil {
		return nil, peerInfo{}, err
	}

	s.shareV = int64(1) << uint(cfg.ShareMaskBits)
	return s, peer, nil
}

// Keys returns the keys the edge runs on: the party's own set, as handed
// to establish, and the public halves the peer sent at the handshake
// (peerRSA is nil unless the engine is YMPP).
func (s *Pair) Keys() (own KeySet, peerPai *paillier.PublicKey, peerRSA *yao.RSAPublicKey) {
	return KeySet{Paillier: s.paiKey, RSA: s.rsaKey}, s.peerPai, s.peerRSA
}

// PeerRSAKey parses the RSA fields of a peer's handshake against the
// agreed engine: under YMPP they must hold a valid public key, under any
// other engine both must be empty (nil key). Anything else is
// ErrHandshake. The ring token (internal/multiparty) carries the same two
// fields under the same rule.
func PeerRSAKey(ympp bool, nb, eb []byte) (*yao.RSAPublicKey, error) {
	if !ympp {
		if len(nb) != 0 || len(eb) != 0 {
			return nil, fmt.Errorf("%w: peer sent an RSA key the agreed engine does not use", ErrHandshake)
		}
		return nil, nil
	}
	if len(nb) == 0 || len(eb) == 0 {
		return nil, fmt.Errorf("%w: peer sent no RSA key under the YMPP engine", ErrHandshake)
	}
	pub, err := yao.UnmarshalRSAPublicKey(nb, eb)
	if err != nil {
		return nil, fmt.Errorf("%w: peer key: %w", ErrHandshake, err)
	}
	return pub, nil
}

// setDimension fixes the virtual-record dimension m and derives the
// comparison bound; protocols call it after interpreting the handshake
// dims (horizontal: m = own = peer; vertical: m = own + peer).
func (s *Pair) setDimension(m int) error {
	if m < 1 {
		return fmt.Errorf("core: record dimension %d < 1", m)
	}
	s.dim = m
	s.bound = int64(m) * s.cfg.MaxCoord * s.cfg.MaxCoord
	if s.bound <= 0 || s.bound > (int64(1)<<50) {
		return fmt.Errorf("core: dist² bound %d out of range (MaxCoord too large?)", s.bound)
	}
	// Every pairwise dist² is ≤ bound, so a threshold beyond the bound is
	// equivalent to the bound itself; clamping keeps comparison inputs in
	// domain. Both parties clamp identically after the handshake agreed on
	// the raw value.
	if s.epsSq > s.bound {
		s.epsSq = s.bound
	}
	s.cellW, s.quantum = CandidateGrid(s.cfg, s.epsSq, s.bound)
	return nil
}

// CandidateGrid picks the grid every candidate set is drawn from, for a
// two-party pair and the ring alike, from handshake-agreed values only, so
// every party derives the same one. Under grid pruning with the Eps ball
// strictly inside the dist² bound it is the Eps grid, cells of
// spatial.CellWidth(epsSq) padded at cfg.PruneQuantum. Otherwise — pruning
// off, or the geometric fallback epsSq ≥ bound, where no dummy could stay
// strictly out of range — it is the one-cell grid: cells wider than the
// coordinate domain [0, MaxCoord], so every point buckets into the one
// cell, padded at 1, so its directory discloses only the counts the
// handshake and the append ops already carry. A query against it is the
// exhaustive one: an honest driver never prunes against one cell
// (Pair.narrow), and a responder refuses an announcement that tries
// (ErrPrunedSpan).
func CandidateGrid(cfg Config, epsSq, bound int64) (width int64, quantum int) {
	if cfg.Pruning == PruneGrid && epsSq < bound {
		return spatial.CellWidth(epsSq), cfg.PruneQuantum
	}
	return cfg.MaxCoord + 1, 1
}

// rowDotPackers derives the pair's dot-product packers; NewPair and the
// arbitrary establishment call it once, after setDimension.
func (s *Pair) rowDotPackers() (err error) {
	if s.rdPeer, err = s.sumPacker(s.peerPai, s.bound); err == nil {
		s.rdOwn, err = s.sumPacker(&s.paiKey.PublicKey, s.bound)
	}
	return err
}

// sumPacker sizes slots under pub for values that land in [0, bound]: the
// key's full S when packing, and the degenerate S = 1 packing — one biased
// value a ciphertext — under "off", so every mode runs the same exchange.
func (s *Pair) sumPacker(pub *paillier.PublicKey, bound int64) (*encoding.Packer, error) {
	pk, err := encoding.NewSumPacker(pub.PlaintextBound(), bound)
	if err != nil || s.packing() {
		return pk, err
	}
	return pk.OneSlot(), nil
}

// packing reports whether this pair runs its batch Paillier rounds
// over slot-packed plaintexts (Config.Packing "slots" or "full" — full
// is a strict superset of slots).
func (s *Pair) packing() bool {
	return s.cfg.Packing == PackSlots || s.cfg.Packing == PackFull
}

// derivedCompare reports whether protocol sites may run derived-base
// comparison batches (zero uplink ciphertexts, the responder re-derives
// E(operand) from ciphertexts it already holds): full packing with the
// masked engine. YMPP sends no Paillier comparison payloads, so there
// is nothing to derive away.
func (s *Pair) derivedCompare() bool {
	return s.cfg.Packing == PackFull && s.cfg.Engine == compare.EngineMasked
}

// dotPacker sizes slots for the §5 masked dot products: every reply
// value lands in [0, bound + shareV), non-negative by construction.
func (s *Pair) dotPacker(pub *paillier.PublicKey) (*encoding.Packer, error) {
	return s.sumPacker(pub, s.bound+s.shareV)
}

// engines builds, for every worker channel c, a matched comparator pair
// for the given inclusive input bound, as[c] and bs[c], that draws from
// channel c's stream (compare.Edge is the one engine constructor). The
// "alice" side (left-value holder, decryptor) uses this party's private
// keys; the "bob" side uses the peer's public keys — so in any
// sub-protocol, the party holding the left value uses its cmpAlice and
// the peer simultaneously uses its cmpBob. The edge runs Config.Batching's round
// structure and counts every instance either side decides into cmpCount
// (Result.SecureComparisons); the masked engines count their own wire
// traffic into ctsUp (Alice's request leg) and ctsDown (Bob's replies).
func (s *Pair) engines(bound int64) (as []compare.Alice, bs []compare.Bob, err error) {
	as, bs = make([]compare.Alice, len(s.streams)), make([]compare.Bob, len(s.streams))
	for c, random := range s.streams {
		if as[c], bs[c], err = (compare.Edge{
			Kind: s.cfg.Engine, MaskBits: s.cfg.CmpMaskBits, Packed: s.packing(), Uplink: s.cfg.Packing == PackFull,
			Key: s.paiKey, RSAKey: s.rsaKey, Pub: s.peerPai, RSAPub: s.peerRSA,
			Random: random, Pool: s.pool, Up: &s.ctsUp, Down: &s.ctsDown,
			Sequential: s.cfg.Batching == BatchModeSequential, Count: &s.cmpCount,
		}).Engines(bound); err != nil {
			return nil, nil, err
		}
	}
	return as, bs, nil
}

// DistEngines returns each worker channel's comparators for the
// split-threshold predicate a + b ≤ Eps² (driver holds a ∈ [0, bound],
// responder holds b ∈ [−bound, bound]). Implemented as strict Less over [0, bound+1] with the responder
// clamping Eps² − b + 1 into the domain, which preserves the predicate
// because a never exceeds bound. The horizontal families, the mesh and
// the ring decide on it; core's lockstep families build the same pair over
// their narrower domain D, s.engines(D + 1) (verticalDomain,
// arbitraryDomain).
func (s *Pair) DistEngines() ([]compare.Alice, []compare.Bob, error) {
	return s.engines(s.bound + 1)
}

// The lockstep comparison domain. Under grid pruning every pair that
// reaches a vertical or arbitrary comparison lies in adjacent cells of the
// Eps grid on every attribute (PrunedLocalDecider), and both parties hold
// the cell matrix, so RoleAlice's share of a compared pair is bounded by a
// public D well below the dist² bound: D + 2 values a YMPP comparison in
// place of bound + 2. On the one-cell grid (W > MaxCoord: pruning off or
// the geometric fallback) D is the bound itself, so those runs compare as
// before.

// adjacentSpanSq is the largest (x − y)² of two coordinates in adjacent
// cells of width W on [0, MaxCoord]: min(2W − 1, MaxCoord)².
func (s *Pair) adjacentSpanSq() int64 {
	span := min(2*s.cellW-1, s.cfg.MaxCoord)
	return span * span
}

// verticalDomain bounds RoleAlice's partial sum over her aliceDim columns
// of an adjacent pair: aliceDim·min(2W − 1, MaxCoord)².
func (s *Pair) verticalDomain(aliceDim int) int64 {
	if s.cellW > s.cfg.MaxCoord {
		return s.bound
	}
	return int64(aliceDim) * s.adjacentSpanSq()
}

// arbitraryDomain bounds RoleAlice's shifted share of an adjacent pair
// (splitShift): a term of hers is either an adjacent difference squared or
// u² − (cW)² for a split value u in cell c, so
// D = m·max(min(2W − 1, M)², max_c[min((c+1)W − 1, M)² − (cW)²]). The
// second maximum grows with c over the full cells, so it is at the top
// cell ⌊M/W⌋, which may be cut short by M, or the one below it.
func (s *Pair) arbitraryDomain() int64 {
	w, m := s.cellW, s.cfg.MaxCoord
	if w > m {
		return s.bound
	}
	d := s.adjacentSpanSq()
	for c := max(m/w-1, 0); c <= m/w; c++ {
		hi := min((c+1)*w-1, m)
		d = max(d, hi*hi-(c*w)*(c*w))
	}
	return int64(s.dim) * d
}

// lockstepFrameBytes is the chunk rule's input (LockstepCluster) for a run
// decided on one engine pair over one domain: the lockstep families fix the
// comparison roles for the whole run — RoleAlice holds the left operands —
// so her Alice engine and RoleBob's Bob engine sit on the same key and
// report the same number.
func (s *Pair) lockstepFrameBytes(a compare.Alice, b compare.Bob) int {
	if s.role == RoleAlice {
		return a.FrameBytes()
	}
	return b.FrameBytes()
}

// decidePairs runs the comparison leg of one lockstep chunk (vertical and
// arbitrary): shares[t] is this party's additive share of dist² for
// instance t, and the pair is within Eps iff Alice's share plus Bob's is at
// most Eps². The comparison roles are fixed for the whole run — RoleAlice
// holds the left operands, RoleBob maps his shares through
// responderOperand — and the frames carry tag. rows[t] names instance t's
// row (PairRows, or a refinement of it), so a grouped uplink's equality
// classes never span two rows (compare/full.go); only RoleAlice reads it.
func (s *Pair) decidePairs(conn transport.Conn, tag string, engA compare.Alice, engB compare.Bob, rows []int, shares []int64) ([]bool, error) {
	setTag(conn, tag)
	s.led(func(l *Ledger) { l.PairDecisions += len(shares) })
	if s.role == RoleAlice {
		return engA.BatchLessRows(conn, shares, rows)
	}
	js := make([]int64, len(shares))
	for t, v := range shares {
		js[t] = s.responderOperand(engB.Bound(), v)
	}
	return engB.BatchLess(conn, js)
}

// responderOperand maps the responder's additive share into the strict
// Less embedding of a + b ≤ Eps²: j = clamp(Eps² − b + 1, [0, bound]).
// The clamp preserves the predicate because the driver's a never exceeds
// the distance bound.
func (s *Pair) responderOperand(bound, peerSum int64) int64 {
	j := s.epsSq - peerSum + 1
	if j < 0 {
		j = 0
	}
	if j > bound {
		j = bound
	}
	return j
}

// setTag routes byte accounting to a protocol phase when the connection is
// metered — a Meter, or at W > 1 a mux channel, which forwards the tag to a
// Meter under the mux; plain connections ignore tagging.
func setTag(conn transport.Conn, tag string) {
	if m, ok := conn.(interface{ SetTag(string) string }); ok {
		m.SetTag(tag)
	}
}
