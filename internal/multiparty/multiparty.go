// Package multiparty implements the paper's stated extension ("the
// two-party algorithm can be extended to multi-party cases", §1) for
// vertically partitioned data: k ≥ 2 parties arranged in a ring each hold
// a column slice of every record and jointly compute the DBSCAN clustering
// of the virtual database, with every party learning the labels — the
// k-party generalization of §4.3.
//
// # Protocol
//
// Per pairwise distance decision, each party computes its local partial
// sum s_p of squared attribute differences. The coordinator (party 0)
// starts a homomorphic accumulation around the ring under its Paillier
// key:
//
//	c_0 = E(s_0)                       coordinator → party 1
//	c_p = c_{p−1} · E(s_p)             party p → party p+1
//	c_last = c_{k−2} · E(s_{k−1} + v)  last party → coordinator, v fresh
//
// The coordinator decrypts t = Σ s_p + v; the mask v (known only to the
// last party) hides the true distance. A two-party secure comparison
// between coordinator (left: t) and last party (right: Eps² + v) — over
// the existing ring edge, using either engine from internal/compare —
// yields the within-Eps bit, which the coordinator then circulates around
// the ring. All parties run core.LockstepCluster with this oracle: the
// whole pair matrix is settled first — one accumulation lap, the
// comparisons and one broadcast lap per chunk of whole rows (up to 256
// undecided pairs), chunk c on worker channel c mod W of every ring edge,
// at every batching and packing — and each party then runs plain DBSCAN
// over the public bits.
//
// With k = 2 the ring degenerates to the two-party vertical protocol
// (party 1 is both accumulator and masker), which the tests use for
// cross-validation.
//
// # What is shared with core
//
// Neither topology carries its own copy of a two-party building block.
// The horizontal mesh (horizontal.go) is the paper's HDP sub-protocol on
// each of its k·(k−1)/2 edges, and an edge is a core.Pair: core's
// handshake (at core's handshakeVersion), index exchange and settle step
// (chunk op frames, MP + comparison exchanges). A Pair is handed its keys
// (core.KeySet), and a mesh party draws one set for all of its edges with
// core.DrawKeySet, the one key draw, which the ring's coordinator calls
// too. The ring is its own protocol, but its token carries core.Params
// (ring handshake at ringHandshakeVersion) — so every agreed parameter,
// CmpMaskBits and ShareMaskBits included, is compared at establishment by
// the same Params.Diff — its coordinator↔last comparison engines come
// from compare.Edge, the one engine constructor, and its edges split into
// worker channels with core.Channels. Config is core.Config itself. The
// sessions share core's session state too: a RingSession holds a
// core.RowGens (the two-party vertical family's table: record count, cell
// rows, PairCache), a MeshSession core.OwnGens + one core.PeerGens per
// peer, and both run under core.Guard. A ring or mesh session is
// establishment plus Run, the one-shot clustering of the paper's
// extension; a second Run on one session answers from the cross-run
// caches. What the ring owns is how k parties agree: state.circulate, the
// one two-lap token pass, which the handshake and the cell-row
// circulation each call with the closures that build and check their
// frames.
//
// # Configuration
//
// Config is core.Config. All parties must agree on every field but Pool
// and Random; the ring token and the mesh edges' handshakes verify this
// through core.Params. Where a field means something particular to k
// parties:
//
//   - ShareMaskBits sizes the ring's sum masks: v ∈ [0, 2^ShareMaskBits).
//   - Batching switches the comparison leg of a chunk only. One ring
//     circulation carries the ciphertexts of a whole lockstep chunk (up to
//     256 undecided pairs, whole rows of the pair matrix) in every mode,
//     and the coordinator↔last comparison is one batch, whose round
//     structure the engine runs (compare.Edge.Sequential): three frames
//     under the default batched mode — O(k) messages a chunk — or three a
//     pair under sequential.
//   - Packing: under the default "slots" mode a ring circulation packs S
//     masked sums per Paillier plaintext (internal/encoding), so a batch of
//     n pairs costs ⌈n/S⌉ ciphertexts per hop instead of n, and the masked
//     comparison engine packs its reply direction the same way. "full"
//     adds the masked engine's packed comparison uplink. "off" runs the
//     same circulation and comparison replies at S = 1, one ciphertext per
//     value.
//   - Pruning: under the default grid mode each ring party discloses the
//     Eps-grid cell coordinates of every record over its own columns (two
//     ring circulations, tag ring.idx); all parties assemble the same full
//     cell matrix and decide non-adjacent pairs out of range locally, so
//     those pairs never circulate. Mesh edges exchange padded occupancy
//     directories instead, at PruneQuantum granularity. Under "off" (and
//     when Eps² reaches the dist² bound) the same exchanges run on the
//     one-cell grid (core.CandidateGrid): every coordinate is the one cell,
//     directories pad at 1, and nothing is pruned.
//   - Parallel is W. The ring circulates up to W chunks of the pair matrix
//     concurrently (per-worker accumulation, comparison and broadcast);
//     the mesh settles every region sub-query of a pass up front
//     (core.Pair.Settle), chunk c on channel c mod W of its edge, and at
//     W > 1 settles with all peers concurrently. W > 1 multiplexes every
//     edge into W worker channels (transport.Mux). Labels and disclosure
//     counts do not depend on W.
//   - Pool is the crypto worker pool of this party's Paillier/RSA batch
//     arithmetic; nil is paillier's process-wide default pool.
//   - Seed seeds a mesh edge's per-query permutations as it does a
//     two-party session's; the ring draws none. Selection is the enhanced
//     family's and plays no part here.
//
// # Disclosure
//
// Beyond the output labels, each party sees only re-randomized
// ciphertexts under the coordinator's key; the coordinator sees masked
// sums t = dist² + v; the last party knows the masks. Each pairwise bit
// is public to all parties (as in Theorem 10). Intermediate parties must
// not collude with the coordinator (standard for ring aggregation).
package multiparty

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/spatial"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Config is core.Config: a ring or mesh party is configured, defaulted and
// validated exactly as a two-party session is (Config.Normalize). What the
// fields mean for the ring and the mesh is under "Configuration" in the
// package comment.
type Config = core.Config

// Party describes one participant's position in the ring.
type Party struct {
	Index int // 0 is the coordinator
	K     int // total parties, ≥ 2
	// Prev receives from party (Index−1+K) mod K; Next sends to
	// (Index+1) mod K.
	Prev, Next transport.Conn
}

func (p Party) validate() error {
	if p.K < 2 {
		return fmt.Errorf("multiparty: need ≥ 2 parties, got %d", p.K)
	}
	if p.Index < 0 || p.Index >= p.K {
		return fmt.Errorf("multiparty: index %d outside [0,%d)", p.Index, p.K)
	}
	if p.Prev == nil || p.Next == nil {
		return fmt.Errorf("multiparty: party %d missing ring connections", p.Index)
	}
	return nil
}

// Result is each party's output.
type Result struct {
	Labels        []int
	NumClusters   int
	PairDecisions int // pairwise within-Eps bits revealed to all parties
	// CachedPairs counts the pair decisions a RingSession run answered
	// from its cross-run cache instead of circulating — zero for one-shot
	// runs and for a session's first run. Cached pairs still count in
	// PairDecisions (the decision-level budget), mirroring
	// core.Result.CachedComparisons.
	CachedPairs int
	// IndexCellCoords counts the per-record cell coordinates this party
	// received in the index circulations so far (on the one-cell grid
	// under pruning off, every one the one cell) — the ring analogue of
	// core.Ledger.IndexCellCoords.
	IndexCellCoords int
	// CiphertextsSent counts the Paillier ciphertexts this party put on
	// the wire during the run (ring circulation frames plus its side of
	// the masked comparison) — the quantity slot packing compresses.
	// YMPP RSA payloads are not counted. Always equal to
	// CiphertextsUplink + CiphertextsDownlink; retained as the
	// compatibility sum.
	CiphertextsSent int64
	// CiphertextsUplink is the request-leg share: ring accumulation
	// frames (operands travelling toward the coordinator's decryption)
	// plus the coordinator's comparison uplink — the leg "full" packing
	// exists to shrink.
	CiphertextsUplink int64
	// CiphertextsDownlink is the response-leg share: the last party's
	// masked comparison replies — the leg "slots" packing shrinks.
	CiphertextsDownlink int64
}

// ErrHandshake reports parameter disagreement, ring-wide or on a mesh
// edge. It is core.ErrHandshake, so errors.Is works through either
// package.
var ErrHandshake = core.ErrHandshake

// ringHandshakeVersion guards against protocol drift between binaries;
// version 2 added the Pruning parameters to the token; version 3 added
// the Parallel scheduler width (which also pins per-edge multiplexing);
// version 4 added the generation tombstone circulation (sliding
// windows); version 5 added the point tombstone circulation
// (point-level retraction); version 6 added the Packing
// plaintext-encoding parameter (slot-packed ring circulations);
// version 7 added the packed comparison uplink ("full" packing, a
// per-batch moded wire form) and the uplink/downlink ciphertext split;
// version 8 replaced the token's own parameter list with core.Params,
// which also carries CmpMaskBits and ShareMaskBits; version 9 made the
// coordinator's RSA key conditional on the agreed engine (rsaN/rsaE
// travel empty unless Engine is "ympp"); version 10 changed no token
// field but the lockstep schedule of a Run (core.LockstepCluster:
// whole-row chunks dealt over the W channels instead of one circulation
// per neighbourhood); version 11 runs a chunk as one circulation at every
// batching and packing — packed one sum a ciphertext under "off", and
// under sequential batching the same circulation with one comparison a
// pair instead of one circulation a pair; version 12 circulates the cell
// index under pruning "off" and the geometric fallback too, on the
// one-cell grid (core.CandidateGrid), and the masked engine's replies are
// biased one-slot plaintexts and its scalar calls batches of one — so a
// peer on the old wire would miss the ring.idx laps; version 13 lays the
// masked replies out column by column over a pre-shifted comparison
// uplink (compare/full.go), so a peer on the old wire would decide wrong
// bits; version 14 sends that uplink negated, so a peer on the old wire
// would decide wrong bits again; version 15 gives YMPP one wire form, a
// comparison always a batch — under sequential batching a batch of one a
// pair, with its count prefix — so a sequential YMPP peer on the old wire
// would misread the comparison frames.
const ringHandshakeVersion = 15

// handshakeToken travels once around the ring accumulating checks.
type handshakeToken struct {
	version int
	params  core.Params
	count   int // record count, must be identical everywhere
	dimSum  int // Σ attribute counts
	k       int
	paiPub  []byte
	rsaN    []byte // with rsaE: empty unless params.Engine is YMPP
	rsaE    []byte
}

func encodeToken(t handshakeToken) *transport.Builder {
	return t.params.Encode(transport.NewBuilder().PutUint(uint64(t.version))).
		PutUint(uint64(t.count)).
		PutUint(uint64(t.dimSum)).
		PutUint(uint64(t.k)).
		PutBytes(t.paiPub).
		PutBytes(t.rsaN).
		PutBytes(t.rsaE)
}

func decodeToken(r *transport.Reader) (handshakeToken, error) {
	t := handshakeToken{
		version: int(r.Uint()),
		params:  core.DecodeParams(r),
		count:   int(r.Uint()),
		dimSum:  int(r.Uint()),
		k:       int(r.Uint()),
	}
	t.paiPub = append([]byte{}, r.Bytes()...)
	t.rsaN = append([]byte{}, r.Bytes()...)
	t.rsaE = append([]byte{}, r.Bytes()...)
	return t, r.Err()
}

// Run executes the k-party vertical protocol for one party: NewRingSession
// and one RingSession.Run. attrs is this party's n × ownDim column slice.
// Every party must call Run concurrently with a consistent ring.
func Run(party Party, cfg Config, attrs [][]float64) (*Result, error) {
	rs, err := NewRingSession(party, cfg, attrs)
	if err != nil {
		return nil, err
	}
	return rs.Run()
}

// newRingState performs the ring session establishment: validation,
// encoding, handshake, engines, and the initial cell circulation.
func newRingState(party Party, cfg Config, attrs [][]float64) (*state, [][]int64, error) {
	if err := party.validate(); err != nil {
		return nil, nil, err
	}
	cc, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	if len(attrs) == 0 {
		return nil, nil, fmt.Errorf("multiparty: party %d holds no records", party.Index)
	}
	st := &state{party: party, cfg: cc, ownDim: len(attrs[0]), pool: cc.Pool}
	for i, row := range attrs {
		if len(row) != st.ownDim {
			return nil, nil, fmt.Errorf("multiparty: record %d has %d attributes, want %d", i, len(row), st.ownDim)
		}
	}
	if st.enc, err = cc.EncodePoints(attrs); err != nil {
		return nil, nil, err
	}
	if st.ownDim < 1 {
		return nil, nil, fmt.Errorf("multiparty: party %d owns no attributes", party.Index)
	}
	st.prevs = core.Channels(party.Prev, cc.Parallel)
	st.nexts = core.Channels(party.Next, cc.Parallel)
	if err := st.handshake(); err != nil {
		return nil, nil, err
	}
	if st.streams, err = core.ChannelStreams(cc.Random, cc.Parallel); err != nil {
		return nil, nil, err
	}
	if err := st.buildEngines(); err != nil {
		return nil, nil, err
	}
	// The index: circulate the per-record cell matrix on the candidate grid
	// (each party's own-column cells, tag ring.idx), then decide
	// non-adjacent pairs out of range locally on every party identically —
	// those pairs never circulate; on the one-cell grid there are none.
	// Pruned pairs still count as pair decisions (the index implies the
	// bit), so PairDecisions is identical across modes.
	cellRows, err := st.circulateCells(st.enc)
	if err != nil {
		return nil, nil, err
	}
	return st, cellRows, nil
}

// state is one party's runtime for the ring protocol.
type state struct {
	party  Party
	cfg    core.Config
	enc    [][]int64 // the records, this party's columns
	ownDim int       // this party's column count
	// preDim is the column count of the parties before this one in ring
	// order (the handshake token's dimension sum as it arrived): the width
	// of the cell rows lap 1 of circulateCells brings.
	preDim int
	epsSq  int64
	pool   *paillier.Pool

	// streams[c] is what every draw on ring channel c reads, chunkLE's
	// and channel c's engines' (core.ChannelStreams).
	streams []io.Reader

	// prevs/nexts are the per-worker ring edges: the bare connections for
	// W = 1, or the W channels of the multiplexed edges (prevs[0]/nexts[0]
	// carry the handshake and index circulation).
	prevs, nexts []transport.Conn

	m      int   // total (virtual) record dimension
	bound  int64 // m·MaxCoord²
	shareV int64

	// Coordinator-owned keys; every party holds the public halves. The
	// RSA pair exists only under the YMPP engine.
	paiKey *paillier.PrivateKey // coordinator only
	rsaKey *yao.RSAKey          // coordinator only
	paiPub *paillier.PublicKey
	rsaPub *yao.RSAPublicKey

	cmpA []compare.Alice // coordinator side, one per channel
	cmpB []compare.Bob   // last-party side, one per channel

	// ringPack packs S masked sums per plaintext in the ring circulation
	// (S = 1 with packing off): the coordinator packs its partials with the
	// bias, every other party folds its contribution in bias-free
	// (PackRaw), so each hop carries ⌈n/S⌉ ciphertexts and the coordinator
	// unpacks the biased sums once. All parties derive it from the shared
	// coordinator key and the handshake-agreed domain bound.
	ringPack  *encoding.Packer
	pairCount atomic.Int64 // within-Eps bits revealed (workers count concurrently)
	// ctsUp / ctsDown split this party's Paillier ciphertext account by
	// wire direction. Ring accumulation frames are operands travelling
	// toward the coordinator's decryption and the comparison that
	// follows, so every hop's contribution is request leg (uplink); the
	// comparison engines count their own traffic via their Sent hooks —
	// the coordinator's Alice uplink into ctsUp, the last party's Bob
	// replies into ctsDown — which matters under "full" packing, where
	// the uplink cost depends on the runtime batch content.
	ctsUp     atomic.Int64
	ctsDown   atomic.Int64
	idxCoords int // cell coordinates received in the index circulation
}

func (st *state) isCoordinator() bool { return st.party.Index == 0 }
func (st *state) isLast() bool        { return st.party.Index == st.party.K-1 }

// lap is one party's step in a circulation: read the frame that arrived
// from the previous party, verify or fold it, and build the frame to pass
// on.
type lap func(r *transport.Reader) (*transport.Builder, error)

// circulate is the ring's one two-lap token pass, on the control edges
// (what names it in errors). The coordinator sends start; on lap 1 every
// other party runs lap1 on the arriving frame — verify against its own
// state, fold its contribution in — and forwards the result; the
// coordinator's lap1 turns what returns into the final frame and sends
// that around; on lap 2 every other party absorbs it with lap2 and
// forwards, and the coordinator drains the return. So nobody acts on a
// value until every party has checked it, and nobody leaves before every
// party holds the final frame. A party whose step fails forwards nothing;
// the others fail on their closed edges.
func (st *state) circulate(what string, start *transport.Builder, lap1, lap2 lap) error {
	prev, next := st.prevs[0], st.nexts[0]
	pass := func(step lap) error {
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return err
		}
		msg, err := step(r)
		if err != nil {
			return err
		}
		return transport.SendMsg(next, msg)
	}
	var err error
	if st.isCoordinator() {
		if err = transport.SendMsg(next, start); err == nil {
			if err = pass(lap1); err == nil {
				_, err = transport.RecvMsg(prev)
			}
		}
	} else if err = pass(lap1); err == nil {
		err = pass(lap2)
	}
	if err != nil {
		return fmt.Errorf("multiparty: %s: %w", what, err)
	}
	return nil
}

// handshake passes a parameter token around the ring twice: first to
// verify agreement and accumulate the total dimension, then to broadcast
// the final dimension back out.
func (st *state) handshake() error {
	params, err := st.cfg.Params()
	if err != nil {
		return err
	}
	st.epsSq = params.EpsSq // finishDims clamps it once the total dimension is known
	ympp := st.cfg.Engine == compare.EngineYMPP
	var m int
	if st.isCoordinator() {
		var keys core.KeySet
		if keys, err = core.DrawKeySet(st.cfg); err != nil {
			return err
		}
		st.paiKey, st.rsaKey = keys.Paillier, keys.RSA
		st.paiPub = &st.paiKey.PublicKey
		var rsaN, rsaE []byte
		if ympp {
			st.rsaPub = &st.rsaKey.RSAPublicKey
			rsaN, rsaE = yao.MarshalRSAPublicKey(st.rsaPub)
		}
		tok := handshakeToken{
			version: ringHandshakeVersion,
			params:  params,
			count:   len(st.enc),
			dimSum:  st.ownDim,
			k:       st.party.K,
			paiPub:  paillier.MarshalPublicKey(st.paiPub),
			rsaN:    rsaN,
			rsaE:    rsaE,
		}
		// The returning token carries the total dimension; lap 2 broadcasts it.
		err = st.circulate("handshake", encodeToken(tok), func(r *transport.Reader) (*transport.Builder, error) {
			got, err := decodeToken(r)
			if err == nil && got.version != ringHandshakeVersion {
				err = fmt.Errorf("%w: version %d vs %d", ErrHandshake, ringHandshakeVersion, got.version)
			}
			m = got.dimSum
			return transport.NewBuilder().PutUint(uint64(m)), err
		}, nil)
	} else {
		// Verify, accumulate own dimension, forward; then learn the total.
		err = st.circulate("handshake", nil, func(r *transport.Reader) (*transport.Builder, error) {
			tok, err := decodeToken(r)
			if err != nil {
				return nil, err
			}
			switch {
			case tok.version != ringHandshakeVersion:
				return nil, fmt.Errorf("%w: version %d vs %d", ErrHandshake, ringHandshakeVersion, tok.version)
			case tok.count != len(st.enc):
				return nil, fmt.Errorf("%w: record count %d vs %d", ErrHandshake, len(st.enc), tok.count)
			case tok.k != st.party.K:
				return nil, fmt.Errorf("%w: ring size %d vs %d", ErrHandshake, st.party.K, tok.k)
			}
			if err := params.Diff(tok.params); err != nil {
				return nil, err
			}
			if st.paiPub, err = paillier.UnmarshalPublicKey(tok.paiPub); err != nil {
				return nil, fmt.Errorf("%w: coordinator key: %w", ErrHandshake, err)
			}
			if st.rsaPub, err = core.PeerRSAKey(ympp, tok.rsaN, tok.rsaE); err != nil {
				return nil, err
			}
			st.preDim = tok.dimSum
			tok.dimSum += st.ownDim
			return encodeToken(tok), nil
		}, func(r *transport.Reader) (*transport.Builder, error) {
			m = int(r.Uint())
			return transport.NewBuilder().PutUint(uint64(m)), r.Err()
		})
	}
	if err != nil {
		return err
	}
	return st.finishDims(m)
}

func (st *state) finishDims(m int) error {
	if m < 1 {
		return fmt.Errorf("multiparty: total dimension %d < 1", m)
	}
	st.m = m
	st.bound = int64(m) * st.cfg.MaxCoord * st.cfg.MaxCoord
	if st.bound <= 0 || st.bound > int64(1)<<50 {
		return fmt.Errorf("multiparty: dist² bound %d out of range", st.bound)
	}
	if st.epsSq > st.bound {
		st.epsSq = st.bound
	}
	st.shareV = int64(1) << uint(st.cfg.ShareMaskBits)
	return nil
}

// circulateCells circulates the candidate-grid index (core.CandidateGrid,
// the two-party rule) of this party's rows at establishment: lap 1
// accumulates each party's own-column cell coordinates per record (in
// party order, matching the virtual column order), lap 2 broadcasts the
// completed matrix, so every party prunes over identical cell rows. Every
// frame must hold one row per record, each as wide as the columns it has
// gathered — the record count the handshake agreed bounds the decode, so a
// hostile frame is refused before anything is sized from it.
func (st *state) circulateCells(batch [][]int64) (full [][]int64, err error) {
	w, _ := core.CandidateGrid(st.cfg, st.epsSq, st.bound)
	own := make([][]int64, len(batch))
	for i, row := range batch {
		own[i] = spatial.Bucket(row, w)
	}
	encode := func(rows [][]int64) *transport.Builder {
		return spatial.EncodeCells(transport.NewBuilder(), rows)
	}
	decode := func(r *transport.Reader, dim int) ([][]int64, error) {
		rows, err := spatial.DecodeCells(r, len(own), dim)
		if err == nil && len(rows) != len(own) {
			err = fmt.Errorf("%d rows, want %d", len(rows), len(own))
		}
		return rows, err
	}
	learn := func(r *transport.Reader) (*transport.Builder, error) {
		if full, err = decode(r, st.m); err != nil {
			return nil, err
		}
		return encode(full), nil
	}
	if st.isCoordinator() {
		err = st.circulate("ring index", encode(own), learn, nil)
	} else {
		err = st.circulate("ring index", nil, func(r *transport.Reader) (*transport.Builder, error) {
			soFar, err := decode(r, st.preDim)
			if err != nil {
				return nil, err
			}
			for i := range own {
				own[i] = append(append([]int64{}, soFar[i]...), own[i]...)
			}
			return encode(own), nil
		}, learn)
	}
	if err != nil {
		return nil, err
	}
	st.idxCoords += len(own) * (st.m - st.ownDim)
	return full, nil
}

// buildEngines constructs the coordinator↔last comparison pair of every
// ring channel, over that channel's stream, on the masked-sum domain
// [0, bound + V) with the shared engine constructor:
// the coordinator holds the private keys (the Alice side), every other
// party their public halves — both comparison roles live on the
// coordinator's key, so both endpoints derive the same packers — and
// only the last party's Bob engine is ever used. The engines run
// Config.Batching's round structure.
func (st *state) buildEngines() (err error) {
	bound := st.bound + st.shareV
	packed := st.cfg.Packing != core.PackOff
	st.cmpA, st.cmpB = make([]compare.Alice, len(st.streams)), make([]compare.Bob, len(st.streams))
	for c, random := range st.streams {
		edge := compare.Edge{
			Kind: st.cfg.Engine, MaskBits: st.cfg.CmpMaskBits, Packed: packed, Uplink: st.cfg.Packing == core.PackFull,
			Random: random, Pool: st.pool, Up: &st.ctsUp, Down: &st.ctsDown,
			Sequential: st.cfg.Batching == core.BatchModeSequential,
		}
		if st.isCoordinator() {
			edge.Key, edge.RSAKey = st.paiKey, st.rsaKey
		} else {
			edge.Pub, edge.RSAPub = st.paiPub, st.rsaPub
		}
		if st.cmpA[c], st.cmpB[c], err = edge.Engines(bound); err != nil {
			return err
		}
	}
	// The ring accumulation packs under the coordinator's key; every slot's
	// final value is one masked sum in [0, bound + V). Under "off" it packs
	// one sum a ciphertext, so every mode runs the same circulation.
	if st.ringPack, err = encoding.NewSumPacker(st.paiPub.PlaintextBound(), bound); err != nil {
		return fmt.Errorf("multiparty: ring packer: %w", err)
	}
	if !packed {
		st.ringPack = st.ringPack.OneSlot()
	}
	return nil
}

// partial computes this party's local sum of squared attribute
// differences for records i and j.
func (st *state) partial(i, j int) int64 {
	var s int64
	for k := range st.enc[i] {
		d := st.enc[i][k] - st.enc[j][k]
		s += d * d
	}
	return s
}

// chunkLE is the ring oracle of one lockstep chunk on worker channel ch:
// one circulation accumulates the ciphertexts of every pair in the chunk
// (encrypted, added, and decrypted on the parallel Paillier pool), packed
// S masked sums a plaintext under ringPack — S = 1 under "off" — then the
// coordinator↔last comparisons settle every threshold (lessEq), and one
// circulation broadcasts the result bits. Message cost per chunk: ~2k ring
// frames plus the comparison frames — 3 batched, 3 a pair under
// sequential batching. Under the parallel scheduler (Config.Parallel) up
// to W such circulations — one per worker channel — ride the multiplexed
// ring edges concurrently.
func (st *state) chunkLE(ch int, pairs [][2]int) ([]bool, error) {
	st.pairCount.Add(int64(len(pairs)))
	prev, next, random := st.prevs[ch], st.nexts[ch], st.streams[ch]
	partials := make([]int64, len(pairs))
	for t, pr := range pairs {
		partials[t] = st.partial(pr[0], pr[1])
	}
	pk := st.ringPack

	if st.isCoordinator() {
		// Pack S partials per plaintext; the bias enters here, exactly
		// once, and every later hop contributes bias-free.
		packed := make([]*big.Int, pk.Groups(len(partials)))
		for g := range packed {
			lo := g * pk.Slots()
			var err error
			if packed[g], err = pk.PackInt64(partials[lo : lo+pk.GroupLen(len(partials), g)]); err != nil {
				return nil, err
			}
		}
		cts, err := st.paiKey.EncryptBatch(st.pool, random, packed)
		if err != nil {
			return nil, err
		}
		st.ctsUp.Add(int64(len(cts)))
		if err := transport.SendMsg(next, transport.NewBuilder().PutBigs(cts)); err != nil {
			return nil, fmt.Errorf("multiparty: ring batch send: %w", err)
		}
		r, err := transport.RecvMsg(prev)
		if err != nil {
			return nil, fmt.Errorf("multiparty: ring batch return: %w", err)
		}
		accs := r.Bigs()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(accs) != len(cts) {
			return nil, fmt.Errorf("multiparty: ring returned %d ciphertexts, want %d", len(accs), len(cts))
		}
		plains, err := st.paiKey.DecryptBatch(st.pool, accs)
		if err != nil {
			return nil, err
		}
		vals := make([]int64, 0, len(pairs))
		for g, pt := range plains {
			sv, err := pk.UnpackInt64(pt, pk.GroupLen(len(pairs), g))
			if err != nil {
				return nil, fmt.Errorf("multiparty: ring unpack: %w", err)
			}
			vals = append(vals, sv...)
		}
		for _, v := range vals {
			// v = dist² + mask ≤ Eps² + mask ⟺ dist² ≤ Eps².
			if v < 0 || v >= st.bound+st.shareV {
				return nil, fmt.Errorf("multiparty: masked sum %d outside [0,%d)", v, st.bound+st.shareV)
			}
		}
		// A chunk holds whole rows, and the grouped uplink dedups within
		// one.
		ins, err := st.cmpA[ch].BatchLessEqRows(prev, vals, core.PairRows(pairs))
		if err != nil {
			return nil, err
		}
		// Broadcast the decisions around the ring.
		if err := transport.SendMsg(next, transport.NewBuilder().PutBools(ins)); err != nil {
			return nil, err
		}
		return ins, nil
	}

	// Non-coordinator: accumulate the whole batch and forward.
	r, err := transport.RecvMsg(prev)
	if err != nil {
		return nil, fmt.Errorf("multiparty: ring batch recv: %w", err)
	}
	accs := r.Bigs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(accs) != pk.Groups(len(pairs)) {
		return nil, fmt.Errorf("multiparty: ring carried %d ciphertexts for %d pairs", len(accs), len(pairs))
	}
	adds := partials
	masks := make([]int64, len(pairs))
	if st.isLast() {
		for t := range adds {
			mask, err := rand.Int(random, big.NewInt(st.shareV))
			if err != nil {
				return nil, err
			}
			masks[t] = mask.Int64()
			adds[t] += masks[t]
		}
	}
	// Mid-ring contribution: bias-free packing (the coordinator already
	// supplied the one bias per slot).
	packed := make([]*big.Int, pk.Groups(len(adds)))
	for g := range packed {
		lo := g * pk.Slots()
		raw := make([]*big.Int, pk.GroupLen(len(adds), g))
		for s := range raw {
			raw[s] = big.NewInt(adds[lo+s])
		}
		if packed[g], err = pk.PackRaw(raw); err != nil {
			return nil, err
		}
	}
	terms, err := st.paiPub.EncryptBatch(st.pool, random, packed)
	if err != nil {
		return nil, err
	}
	if err := paillier.ParallelFor(st.pool, len(accs), func(t int) error {
		acc, err := st.paiPub.Add(accs[t], terms[t])
		if err != nil {
			return err
		}
		accs[t] = acc
		return nil
	}); err != nil {
		return nil, err
	}
	st.ctsUp.Add(int64(len(accs)))
	if err := transport.SendMsg(next, transport.NewBuilder().PutBigs(accs)); err != nil {
		return nil, fmt.Errorf("multiparty: ring batch forward: %w", err)
	}
	if st.isLast() {
		// Participate in the comparison with right sides Eps² + v_t.
		rights := make([]int64, len(pairs))
		for t := range rights {
			rights[t] = st.epsSq + masks[t]
		}
		if _, err := st.cmpB[ch].BatchLessEq(next, rights); err != nil {
			return nil, err
		}
	}
	// Receive the broadcast decisions; forward unless the next hop is the
	// coordinator (who originated them).
	br, err := transport.RecvMsg(prev)
	if err != nil {
		return nil, fmt.Errorf("multiparty: batch broadcast recv: %w", err)
	}
	ins := br.Bools()
	if br.Err() != nil {
		return nil, br.Err()
	}
	if len(ins) != len(pairs) {
		return nil, fmt.Errorf("multiparty: broadcast carried %d bits for %d pairs", len(ins), len(pairs))
	}
	if !st.isLast() {
		if err := transport.SendMsg(next, transport.NewBuilder().PutBools(ins)); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// NewLocalRing builds an in-process ring of k parties for tests, examples,
// and benchmarks.
func NewLocalRing(k int) []Party {
	// edge[i] connects party i (as Next) to party i+1 mod k (as Prev).
	type edge struct{ a, b transport.Conn }
	edges := make([]edge, k)
	for i := range edges {
		a, b := transport.Pipe()
		edges[i] = edge{a, b}
	}
	parties := make([]Party, k)
	for i := range parties {
		parties[i] = Party{
			Index: i,
			K:     k,
			Next:  edges[i].a,
			Prev:  edges[(i-1+k)%k].b,
		}
	}
	return parties
}
