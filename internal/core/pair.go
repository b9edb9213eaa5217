package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
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
// the old wire would expect other frames. Mesh edges (internal/multiparty)
// speak the same frame with proto "mesh".
const handshakeVersion = 14

// ErrHandshake reports parameter disagreement between the parties.
var ErrHandshake = errors.New("core: handshake parameter mismatch")

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
	// (Config.Pool, injected by SessionManager.Configure), or nil for the
	// solo-session GOMAXPROCS fan-out.
	pool *paillier.Pool

	random io.Reader

	// Grid-pruning state (Config.Pruning): cellW is the Eps-grid cell
	// width; pruneOn reports whether pruning is active for this pair —
	// requested by config AND geometrically useful (epsSq < bound; at
	// epsSq = bound a single cell covers the whole domain and dummy
	// padding could not stay strictly out of range). The generational
	// index state itself lives in OwnGens / PeerGens (gens.go).
	cellW   int64
	pruneOn bool

	// mpPeer / mpOwn size the arbitrary family's slot-packed
	// masked-product frames (nil with packing off): mpPeer the frames sent
	// under the peer's key, mpOwn the frames served under our own. Derived
	// once per pair by productPackers; both ends agree because the geometry
	// is a function of the exchanged keys and handshake-agreed parameters.
	mpPeer, mpOwn *encoding.Packer

	// rdPeer / rdOwn size the row-dot frames of a settle chunk: a slot
	// holds one exact cross dot product, |Σ x·y| ≤ bound, under the peer's
	// key (rdPeer, the replies we fold as driver) or our own (rdOwn, the
	// coordinates we pack as responder). Derived once per horizontal pair
	// by rowDotPackers.
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

// PruneOn reports whether the edge runs grid-pruned queries and index
// exchanges.
func (s *Pair) PruneOn() bool { return s.pruneOn }

// Ciphertexts reports the Paillier ciphertexts this party put on the
// edge since ResetRun, split by leg.
func (s *Pair) Ciphertexts() (up, down int64) { return s.ctsUp.Load(), s.ctsDown.Load() }

// channelRng derives the permutation source of one responder worker
// channel (Algorithm 4's SetOfPointsOfBobPermutation). Worker channels
// consume permutations concurrently, so each gets its own source;
// permutations only hide which peer point answered which slot, so labels
// and count-based Ledger classes do not depend on how the draws are
// split. Seeded sessions (tests) get a deterministic source; production
// draws from the pair's crypto randomness, never math/rand — response
// permutations are responder-hiding state.
func (s *Pair) channelRng(ch int) PermSource {
	if s.cfg.Seed != 0 {
		return newSeededPerm(uint64(s.cfg.Seed+int64(s.role)+1) + 7919*uint64(ch+1))
	}
	return cryptoPerm{r: s.random}
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

// establish splits conn into the edge's worker channels, generates the
// keys the agreed engine needs (a Paillier pair always, an RSA pair only
// under YMPP), exchanges public keys, and verifies that both parties agree
// on every protocol parameter. cfg must be normalised (Config.Normalize).
// proto names the protocol ("horizontal", "vertical", "mesh", ...) so
// mismatched invocations fail fast. ownDim/ownCount describe this
// party's data and are shared with the peer.
func establish(conn transport.Conn, cfg Config, role Role, proto string, ownDim, ownCount int) (*Pair, peerInfo, error) {
	params, err := cfg.Params()
	if err != nil {
		return nil, peerInfo{}, err
	}
	random := cfg.Random
	if random == nil {
		random = rand.Reader
	}
	if cfg.Parallel > 1 {
		// Parallel workers sample masks and nonces concurrently; the
		// configured reader is not assumed goroutine-safe.
		random = transport.LockedReader(random)
	}

	s := &Pair{cfg: cfg, role: role, epsSq: params.EpsSq, random: random, pool: cfg.Pool, Conns: Channels(conn, cfg.Parallel)}
	s.paiKey, err = paillier.GenerateKey(random, cfg.PaillierBits)
	if err != nil {
		return nil, peerInfo{}, err
	}
	ympp := cfg.Engine == compare.EngineYMPP
	var rsaN, rsaE []byte
	if ympp {
		if s.rsaKey, err = yao.GenerateRSAKey(random, cfg.RSABits); err != nil {
			return nil, peerInfo{}, err
		}
		rsaN, rsaE = yao.MarshalRSAPublicKey(&s.rsaKey.RSAPublicKey)
	}

	conn = s.Conns[0]
	setTag(conn, "handshake")
	msg := handshakeMsg(proto, role, params, ownDim, ownCount, paillier.MarshalPublicKey(&s.paiKey.PublicKey), rsaN, rsaE)
	if err := transport.SendMsg(conn, msg); err != nil {
		return nil, peerInfo{}, fmt.Errorf("core: handshake send: %w", err)
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return nil, peerInfo{}, fmt.Errorf("core: handshake recv: %w", err)
	}
	pVersion := r.Uint()
	pProto := r.String()
	pRole := Role(r.Uint())
	pParams := DecodeParams(r)
	peer := peerInfo{Dim: int(r.Uint()), Count: int(r.Uint())}
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

	if s.peerPai, err = paillier.UnmarshalPublicKey(paiB); err != nil {
		return nil, peerInfo{}, fmt.Errorf("%w: peer key: %w", ErrHandshake, err)
	}
	if s.peerRSA, err = PeerRSAKey(ympp, rsaNB, rsaEB); err != nil {
		return nil, peerInfo{}, err
	}

	s.shareV = int64(1) << uint(cfg.ShareMaskBits)
	return s, peer, nil
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
	// Grid pruning engages only when the Eps ball is strictly smaller than
	// the coordinate domain; both parties derive this from handshake-agreed
	// values, so they agree on whether the index phases run.
	s.cellW = spatial.CellWidth(s.epsSq)
	s.pruneOn = s.cfg.Pruning == PruneGrid && s.epsSq < s.bound
	return nil
}

// rowDotPackers derives the pair's row-dot packers; NewPair calls it once,
// after setDimension.
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

// engines builds a matched comparator pair for the given inclusive input
// bound (compare.Edge is the one engine constructor). The "alice" side
// (left-value holder, decryptor) uses this party's private keys; the
// "bob" side uses the peer's public keys — so in any sub-protocol, the
// party holding the left value uses its cmpAlice and the peer
// simultaneously uses its cmpBob. Both halves are wrapped in counters
// feeding Result.SecureComparisons; the masked engines count their own
// wire traffic into ctsUp (Alice's request leg) and ctsDown (Bob's
// replies).
func (s *Pair) engines(bound int64) (compare.Alice, compare.Bob, error) {
	a, b, err := compare.Edge{
		Kind: s.cfg.Engine, MaskBits: s.cfg.CmpMaskBits, Packed: s.packing(), Uplink: s.cfg.Packing == PackFull,
		Key: s.paiKey, RSAKey: s.rsaKey, Pub: s.peerPai, RSAPub: s.peerRSA,
		Random: s.random, Pool: s.pool, Up: &s.ctsUp, Down: &s.ctsDown,
	}.Engines(bound)
	if err != nil {
		return nil, nil, err
	}
	return &countingAlice{inner: a, n: &s.cmpCount}, &countingBob{inner: b, n: &s.cmpCount}, nil
}

// countingAlice/countingBob wrap a comparison engine and tally executed
// instances (one per predicate, so a batch of k counts k) into the
// session's cmpCount — the Result.SecureComparisons metric. Ciphertext
// accounting lives in the engines themselves (MaskedAlice/MaskedBob
// Sent hooks wired by compare.Edge); YMPP engines send no Paillier
// payloads and count nothing.
type countingAlice struct {
	inner compare.Alice
	n     *atomic.Int64
}

func (c *countingAlice) LessEq(conn transport.Conn, a int64) (bool, error) {
	c.n.Add(1)
	return c.inner.LessEq(conn, a)
}

func (c *countingAlice) Less(conn transport.Conn, a int64) (bool, error) {
	c.n.Add(1)
	return c.inner.Less(conn, a)
}

func (c *countingAlice) BatchLessEq(conn transport.Conn, as []int64) ([]bool, error) {
	c.n.Add(int64(len(as)))
	return c.inner.BatchLessEq(conn, as)
}

func (c *countingAlice) BatchLess(conn transport.Conn, as []int64) ([]bool, error) {
	c.n.Add(int64(len(as)))
	return c.inner.BatchLess(conn, as)
}

func (c *countingAlice) BatchLessEqRows(conn transport.Conn, as []int64, rows []int) ([]bool, error) {
	c.n.Add(int64(len(as)))
	return c.inner.BatchLessEqRows(conn, as, rows)
}

func (c *countingAlice) BatchLessRows(conn transport.Conn, as []int64, rows []int) ([]bool, error) {
	c.n.Add(int64(len(as)))
	return c.inner.BatchLessRows(conn, as, rows)
}

// BatchLessEqDerived forwards a derived-base batch (operands already
// held encrypted by the peer; zero uplink ciphertexts). Only masked
// engines with an UplinkPacker support it; callers gate on
// Pair.derivedCompare(), so a failed assertion is a programming error.
func (c *countingAlice) BatchLessEqDerived(conn transport.Conn, as []int64) ([]bool, error) {
	d, ok := c.inner.(compare.DerivedAlice)
	if !ok {
		return nil, fmt.Errorf("core: engine %s does not support derived-base batches", c.inner.Name())
	}
	c.n.Add(int64(len(as)))
	return d.BatchLessEqDerived(conn, as)
}

// BatchLessDerived is the strict variant of BatchLessEqDerived.
func (c *countingAlice) BatchLessDerived(conn transport.Conn, as []int64) ([]bool, error) {
	d, ok := c.inner.(compare.DerivedAlice)
	if !ok {
		return nil, fmt.Errorf("core: engine %s does not support derived-base batches", c.inner.Name())
	}
	c.n.Add(int64(len(as)))
	return d.BatchLessDerived(conn, as)
}

func (c *countingAlice) Bound() int64    { return c.inner.Bound() }
func (c *countingAlice) FrameBytes() int { return c.inner.FrameBytes() }
func (c *countingAlice) Name() string    { return c.inner.Name() }

type countingBob struct {
	inner compare.Bob
	n     *atomic.Int64
}

func (c *countingBob) LessEq(conn transport.Conn, b int64) (bool, error) {
	c.n.Add(1)
	return c.inner.LessEq(conn, b)
}

func (c *countingBob) Less(conn transport.Conn, b int64) (bool, error) {
	c.n.Add(1)
	return c.inner.Less(conn, b)
}

func (c *countingBob) BatchLessEq(conn transport.Conn, bs []int64) ([]bool, error) {
	c.n.Add(int64(len(bs)))
	return c.inner.BatchLessEq(conn, bs)
}

func (c *countingBob) BatchLess(conn transport.Conn, bs []int64) ([]bool, error) {
	c.n.Add(int64(len(bs)))
	return c.inner.BatchLess(conn, bs)
}

// BatchLessEqDerived is the Bob half of the Alice-side derived-base
// batch: base supplies E(a_t) under Bob's view of the peer key, so no
// uplink frame carries operands. base must be goroutine-safe (the reply
// fold runs on the parallel Paillier pool).
func (c *countingBob) BatchLessEqDerived(conn transport.Conn, bs []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
	d, ok := c.inner.(compare.DerivedBob)
	if !ok {
		return nil, fmt.Errorf("core: engine %s does not support derived-base batches", c.inner.Name())
	}
	c.n.Add(int64(len(bs)))
	return d.BatchLessEqDerived(conn, bs, base)
}

// BatchLessDerived is the strict variant of BatchLessEqDerived.
func (c *countingBob) BatchLessDerived(conn transport.Conn, bs []int64, base func(t int) (*big.Int, error)) ([]bool, error) {
	d, ok := c.inner.(compare.DerivedBob)
	if !ok {
		return nil, fmt.Errorf("core: engine %s does not support derived-base batches", c.inner.Name())
	}
	c.n.Add(int64(len(bs)))
	return d.BatchLessDerived(conn, bs, base)
}

func (c *countingBob) Bound() int64    { return c.inner.Bound() }
func (c *countingBob) FrameBytes() int { return c.inner.FrameBytes() }
func (c *countingBob) Name() string    { return c.inner.Name() }

// DistEngines returns comparators for the split-threshold predicate
// a + b ≤ Eps² (driver holds a ∈ [0, bound], responder holds b ∈ [−bound,
// bound]). Implemented as strict Less over [0, bound+1] with the responder
// clamping Eps² − b + 1 into the domain, which preserves the predicate
// because a never exceeds bound.
func (s *Pair) DistEngines() (compare.Alice, compare.Bob, error) {
	return s.engines(s.bound + 1)
}

// lockstepFrameBytes is the chunk rule's input (LockstepCluster) for a run
// decided on the DistEngines pair: the lockstep families fix the
// comparison roles for the whole run — RoleAlice holds the left operands —
// so her Alice engine and RoleBob's Bob engine sit on the same key and
// report the same number.
func (s *Pair) lockstepFrameBytes(a compare.Alice, b compare.Bob) int {
	if s.role == RoleAlice {
		return a.FrameBytes()
	}
	return b.FrameBytes()
}

// batched reports whether this session uses the batched round structure.
func (s *Pair) batched() bool { return s.cfg.Batching == BatchModeBatched }

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
// metered; plain connections ignore tagging.
func setTag(conn transport.Conn, tag string) {
	if m, ok := conn.(*transport.Meter); ok {
		m.SetTag(tag)
	}
}
