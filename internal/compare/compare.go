// Package compare provides pluggable secure two-party comparison engines
// with a single ideal functionality: Alice holds a, Bob holds b, both in
// [0, Bound], and both parties learn whether a ≤ b (or a < b) and nothing
// else about the peer's value.
//
// Two engines are provided:
//
//   - YMPP: the paper's Algorithm 1 (Yao 1982), faithful, with O(Bound)
//     communication and computation per call. This is what every protocol
//     in the paper charges its complexity against.
//   - Masked: a Paillier-based extension engine (NOT in the paper) that
//     costs O(1) ciphertexts per call. Bob homomorphically computes
//     t = r·(b−a) + r′ with r random and 0 ≤ r′ < r, so sign(t) =
//     sign(b−a); Alice decrypts t and learns the sign plus roughly
//     log₂|b−a| masked magnitude bits. internal/privacy pins this bounded
//     leakage (TestMaskedEngineMagnitudeLeakIsDetectable); the engine
//     exists to make n-scaling experiments tractable and to serve as the
//     E8 ablation baseline. Its replies always travel slot-packed, one
//     slot a ciphertext when packing is off; "full" packing extends that
//     form with a moded uplink (full.go). The replies have one
//     layout, column by column, and Alice encrypts each uplink operand
//     negated and pre-shifted to the lowest reply slot it serves, so
//     Bob's homomorphic fold raises it by its positive mask and a short
//     relative shift — no inversion, and not the whole width of the
//     reply.
//
// A comparison has one call shape: a batch (batch.go). Both engines have
// one wire form, a batch of any length in three frames, so a single
// comparison is a batch of one. How a batch meets the wire is the
// engine's, set once by Edge, the one engine constructor: Edge.Sequential
// runs every batch as batches of one, in order — 3·k frames for k
// instances instead of 3 — and Edge.Count tallies every instance a batch
// entry point decides, derived batches included. Callers call the engine
// and branch on neither.
//
// Engines are stateful about keys but stateless across calls; each call
// performs complete comparison sub-protocols on the supplied connection.
package compare

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Alice is the comparison interface for the party holding the left value.
type Alice interface {
	// BatchLessEq decides a_t ≤ b_t for every t — three frames, or 3·k
	// under Edge.Sequential; must pair with the Bob side's BatchLessEq
	// with the same batch length. An empty batch touches no network.
	BatchLessEq(conn transport.Conn, as []int64) ([]bool, error)
	// BatchLess is the strict batched predicate; pairs with Bob BatchLess.
	BatchLess(conn transport.Conn, as []int64) ([]bool, error)
	// BatchLessEqRows is BatchLessEq over a batch that concatenates
	// several independent rows — neighbourhoods of the lockstep driver —
	// with rows[t] naming instance t's row: whatever an engine's frames
	// let the peer see about equal operands, they let it see within a row
	// only (the masked grouped uplink, full.go). Same decisions, same
	// frame count; pairs with the Bob side's plain BatchLessEq.
	BatchLessEqRows(conn transport.Conn, as []int64, rows []int) ([]bool, error)
	// BatchLessRows is the strict variant; pairs with Bob BatchLess.
	BatchLessRows(conn transport.Conn, as []int64, rows []int) ([]bool, error)
	// Bound is the inclusive maximum input value.
	Bound() int64
	// FrameBytes bounds what one batch instance adds to the largest frame
	// of its batch; the Bob side of the edge reports the same number.
	FrameBytes() int
	// Name identifies the engine for reports.
	Name() string
}

// Bob is the comparison interface for the party holding the right value.
type Bob interface {
	BatchLessEq(conn transport.Conn, bs []int64) ([]bool, error)
	BatchLess(conn transport.Conn, bs []int64) ([]bool, error)
	Bound() int64
	FrameBytes() int
	Name() string
}

// EngineKind selects a comparison engine at session setup.
type EngineKind string

const (
	// EngineYMPP is the paper's Algorithm 1.
	EngineYMPP EngineKind = "ympp"
	// EngineMasked is the O(1)-ciphertext extension engine.
	EngineMasked EngineKind = "masked"
)

// ParseEngine validates an engine name from flags or config.
func ParseEngine(s string) (EngineKind, error) {
	switch EngineKind(s) {
	case EngineYMPP, EngineMasked:
		return EngineKind(s), nil
	}
	return "", fmt.Errorf("compare: unknown engine %q (want %q or %q)", s, EngineYMPP, EngineMasked)
}

func checkInput(v, bound int64) error {
	if v < 0 || v > bound {
		return fmt.Errorf("compare: input %d outside [0,%d]", v, bound)
	}
	return nil
}

// ---- YMPP engine ----

// YMPPAlice adapts the yao package to the Alice interface. Pool, when
// non-nil, bounds the O(Bound) local decryption fan-out on the
// process-shared crypto pool (a multi-session server hands every engine
// the same pool); nil is paillier's process-wide default pool.
type YMPPAlice struct {
	Key    *yao.RSAKey
	Max    int64
	Random io.Reader
	Pool   *paillier.Pool
	rounds
}

// YMPPBob adapts the yao package to the Bob interface. Bob's half does
// no heavy local work, so it takes no pool handle.
type YMPPBob struct {
	Pub    *yao.RSAPublicKey
	Max    int64
	Random io.Reader
	rounds
}

func (a *YMPPAlice) Bound() int64 { return a.Max }
func (a *YMPPAlice) Name() string { return string(EngineYMPP) }

func (b *YMPPBob) Bound() int64 { return b.Max }
func (b *YMPPBob) Name() string { return string(EngineYMPP) }

// ---- Masked-sign engine ----

// DefaultMaskBits is the default multiplicative mask size κ.
const DefaultMaskBits = 40

const (
	predLessEq byte = 1
	predLess   byte = 2
)

// ErrPredicateMismatch reports that the two parties invoked different
// predicates (a LessEq batch on one side, a Less batch on the other).
var ErrPredicateMismatch = errors.New("compare: parties invoked different predicates")

// MaskedAlice is the decrypting side of the masked-sign engine. Pool,
// when non-nil, routes the batch decryptions over the process-shared
// crypto pool; nil is paillier's process-wide default pool.
//
// Packer slot-packs every reply, a batch of one included:
// Bob packs S masked differences per ciphertext, each biased
// non-negative (encoding.NewComparePacker over the same key and bound
// derives identical packers on both sides; under "off" packing it is
// capped at S = 1 by encoding.Packer.OneSlot). It must be set —
// Edge.Engines and NewMaskedPair always set it. Under Packer alone only
// the reply direction packs — the E(−a_t) uplink stays one ciphertext per
// instance, because the masking multiplier r must be independent per
// instance; sharing one r across a packed slot group would hand Alice
// the exact magnitude ratios of the differences.
//
// UplinkPacker, when additionally non-nil ("full" packing,
// encoding.NewUplinkComparePacker on both sides), compresses the uplink
// too — not by sharing multipliers, which stays forbidden, but by
// restructuring the round so Bob applies each instance's fresh r_t
// homomorphically per slot before the slot fold (see full.go).
// Derived-base batches reply with the widened UplinkPacker; grouped and
// per-instance batches keep the Packer.
//
// Sent, when non-nil, accumulates the Paillier ciphertexts this side
// actually put on the wire, call by call — the engine owns the count
// because under full packing the uplink cost depends on runtime batch
// content (how many distinct operands a batch holds), which callers
// cannot predict.
type MaskedAlice struct {
	Key          *paillier.PrivateKey
	Max          int64
	Random       io.Reader
	Pool         *paillier.Pool
	Packer       *encoding.Packer
	UplinkPacker *encoding.Packer
	Sent         *atomic.Int64
	rounds
}

// MaskedBob is the homomorphic side of the masked-sign engine. Pool
// mirrors MaskedAlice.Pool for the batched homomorphic arithmetic;
// Packer and UplinkPacker mirror MaskedAlice's and must agree with the
// peer's (both derive from handshake-checked parameters); Sent counts
// this side's reply ciphertexts.
type MaskedBob struct {
	Pub          *paillier.PublicKey
	Max          int64
	MaskBits     int
	Random       io.Reader
	Pool         *paillier.Pool
	Packer       *encoding.Packer
	UplinkPacker *encoding.Packer
	Sent         *atomic.Int64
	rounds
}

// tally adds n to a nil-safe counter.
func tally(c *atomic.Int64, n int) {
	if c != nil {
		c.Add(int64(n))
	}
}

// Edge is the key material and agreed parameters of one comparison edge —
// the one place engines are constructed. Key/RSAKey are this party's
// private halves (its Alice engines decrypt under them); Pub/RSAPub are
// the peer's public halves (its Bob engines answer under them). A party
// holding only one side of the edge leaves the other side nil and gets a
// nil engine for it. The masked engines always reply through a packer:
// Packed gives it the key's S slots, otherwise it holds one; Uplink adds
// the packed comparison uplink. Both ends derive identical packers
// because they are functions of the key, the bound and MaskBits alone.
// Up/Down, when non-nil, receive the masked engines' ciphertext counts
// (Alice's request leg, Bob's reply leg). Sequential and Count are the
// round structure and the instance count every engine of the edge takes
// (rounds).
type Edge struct {
	Kind           EngineKind
	MaskBits       int
	Packed, Uplink bool
	Key            *paillier.PrivateKey
	RSAKey         *yao.RSAKey
	Pub            *paillier.PublicKey
	RSAPub         *yao.RSAPublicKey
	Random         io.Reader
	Pool           *paillier.Pool
	Up, Down       *atomic.Int64
	// Sequential runs every batch as batches of one, in order: one
	// complete three-frame comparison per instance.
	Sequential bool
	// Count, when non-nil, receives the number of instances every batch
	// decides, on either side of the edge.
	Count *atomic.Int64
}

// Engines builds the edge's comparator pair over [0, bound].
func (e Edge) Engines(bound int64) (Alice, Bob, error) {
	var a Alice
	var b Bob
	r := rounds{sequential: e.Sequential, count: e.Count}
	switch e.Kind {
	case EngineYMPP:
		if bound+2 > yao.MaxDomain {
			return nil, nil, fmt.Errorf("compare: comparison domain %d exceeds YMPP limit %d; use the masked engine or a smaller grid", bound+2, int64(yao.MaxDomain))
		}
		if e.RSAKey != nil {
			a = &YMPPAlice{Key: e.RSAKey, Max: bound, Random: e.Random, Pool: e.Pool, rounds: r}
		}
		if e.RSAPub != nil {
			b = &YMPPBob{Pub: e.RSAPub, Max: bound, Random: e.Random, rounds: r}
		}
	case EngineMasked:
		// packers sizes the reply and uplink packers under one key. The
		// reply packer is the one range check: it refuses a bound and κ
		// whose masked difference does not fit one slot of the plaintext
		// space. Without Packed it is capped at one slot a ciphertext.
		packers := func(pub *paillier.PublicKey) (cp, up *encoding.Packer, err error) {
			if cp, err = encoding.NewComparePacker(pub.PlaintextBound(), bound, e.MaskBits); err != nil {
				return nil, nil, fmt.Errorf("compare: comparison packer for bound %d with %d mask bits under a %d-bit key: %w", bound, e.MaskBits, pub.Bits(), err)
			}
			if !e.Packed {
				cp = cp.OneSlot()
			}
			if e.Uplink {
				if up, err = encoding.NewUplinkComparePacker(pub.PlaintextBound(), bound, e.MaskBits); err != nil {
					return nil, nil, fmt.Errorf("compare: uplink comparison packer: %w", err)
				}
			}
			return cp, up, nil
		}
		if e.Key != nil {
			cp, up, err := packers(&e.Key.PublicKey)
			if err != nil {
				return nil, nil, err
			}
			a = &MaskedAlice{Key: e.Key, Max: bound, Random: e.Random, Pool: e.Pool, Packer: cp, UplinkPacker: up, Sent: e.Up, rounds: r}
		}
		if e.Pub != nil {
			cp, up, err := packers(e.Pub)
			if err != nil {
				return nil, nil, err
			}
			b = &MaskedBob{Pub: e.Pub, Max: bound, MaskBits: e.MaskBits, Random: e.Random, Pool: e.Pool, Packer: cp, UplinkPacker: up, Sent: e.Down, rounds: r}
		}
	default:
		return nil, nil, fmt.Errorf("compare: unknown engine %q", e.Kind)
	}
	return a, b, nil
}

// NewMaskedPair builds both sides of a masked engine from one Paillier key
// pair, replies one slot a ciphertext; the reply packer validates that
// masked values cannot wrap the plaintext space.
func NewMaskedPair(key *paillier.PrivateKey, bound int64, maskBits int) (*MaskedAlice, *MaskedBob, error) {
	if maskBits <= 0 {
		maskBits = DefaultMaskBits
	}
	if bound < 0 {
		return nil, nil, fmt.Errorf("compare: negative bound %d", bound)
	}
	a, b, err := Edge{Kind: EngineMasked, MaskBits: maskBits, Key: key, Pub: &key.PublicKey}.Engines(bound)
	if err != nil {
		return nil, nil, err
	}
	return a.(*MaskedAlice), b.(*MaskedBob), nil
}

func (a *MaskedAlice) Bound() int64 { return a.Max }
func (a *MaskedAlice) Name() string { return string(EngineMasked) }

func (b *MaskedBob) Bound() int64 { return b.Max }
func (b *MaskedBob) Name() string { return string(EngineMasked) }

var (
	_ Alice = (*YMPPAlice)(nil)
	_ Bob   = (*YMPPBob)(nil)
	_ Alice = (*MaskedAlice)(nil)
	_ Bob   = (*MaskedBob)(nil)
)
