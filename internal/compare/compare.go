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
//     E8 ablation baseline.
//
// Engines are stateful about keys but stateless across calls; each call
// performs one complete comparison sub-protocol on the supplied connection.
package compare

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Alice is the comparison interface for the party holding the left value.
type Alice interface {
	// LessEq decides a ≤ b; must pair with the Bob side's LessEq.
	LessEq(conn transport.Conn, a int64) (bool, error)
	// Less decides a < b; must pair with the Bob side's Less.
	Less(conn transport.Conn, a int64) (bool, error)
	// BatchLessEq decides a_t ≤ b_t for every t in a constant number of
	// message rounds; must pair with the Bob side's BatchLessEq with the
	// same batch length. An empty batch touches no network.
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
	LessEq(conn transport.Conn, b int64) (bool, error)
	Less(conn transport.Conn, b int64) (bool, error)
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
// the same pool); nil keeps the per-call GOMAXPROCS fan-out.
type YMPPAlice struct {
	Key    *yao.RSAKey
	Max    int64
	Random io.Reader
	Pool   *paillier.Pool
}

// YMPPBob adapts the yao package to the Bob interface. Bob's half does
// no heavy local work, so it takes no pool handle.
type YMPPBob struct {
	Pub    *yao.RSAPublicKey
	Max    int64
	Random io.Reader
}

func (a *YMPPAlice) LessEq(conn transport.Conn, v int64) (bool, error) {
	if err := checkInput(v, a.Max); err != nil {
		return false, err
	}
	return yao.AliceLessEq(conn, a.Key, v, a.Max, a.Random, a.Pool)
}

func (a *YMPPAlice) Less(conn transport.Conn, v int64) (bool, error) {
	if err := checkInput(v, a.Max); err != nil {
		return false, err
	}
	return yao.AliceLess(conn, a.Key, v, a.Max, a.Random, a.Pool)
}

func (a *YMPPAlice) Bound() int64 { return a.Max }
func (a *YMPPAlice) Name() string { return string(EngineYMPP) }

func (b *YMPPBob) LessEq(conn transport.Conn, v int64) (bool, error) {
	if err := checkInput(v, b.Max); err != nil {
		return false, err
	}
	return yao.BobLessEq(conn, b.Pub, v, b.Max, b.Random)
}

func (b *YMPPBob) Less(conn transport.Conn, v int64) (bool, error) {
	if err := checkInput(v, b.Max); err != nil {
		return false, err
	}
	return yao.BobLess(conn, b.Pub, v, b.Max, b.Random)
}

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
// predicates (LessEq on one side, Less on the other).
var ErrPredicateMismatch = errors.New("compare: parties invoked different predicates")

// MaskedAlice is the decrypting side of the masked-sign engine. Pool,
// when non-nil, routes the batch decryptions over the process-shared
// crypto pool; nil keeps the per-call GOMAXPROCS fan-out.
//
// Packer, when non-nil, makes batch replies arrive slot-packed: Bob
// packs S masked differences per ciphertext (encoding.NewComparePacker
// over the same key and bound derives identical packers on both sides).
// Under Packer alone ("slots" packing) only the reply direction packs —
// the E(a_t) uplink stays one ciphertext per instance, because the
// masking multiplier r must be independent per instance; sharing one r
// across a packed slot group would hand Alice the exact magnitude
// ratios of the differences. Scalar calls ignore the Packer.
//
// UplinkPacker, when additionally non-nil ("full" packing,
// encoding.NewUplinkComparePacker on both sides), compresses the uplink
// too — not by sharing multipliers, which stays forbidden, but by
// restructuring the round so Bob applies each instance's fresh r_t
// homomorphically per slot before the slot fold (see full.go). Batch
// replies then pack with the widened UplinkPacker; the Packer is kept
// for the per-instance fallback batches where grouping cannot win.
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
}

// addSent accumulates n ciphertexts into a nil-safe counter.
func addSent(c *atomic.Int64, n int) {
	if c != nil {
		c.Add(int64(n))
	}
}

// Edge is the key material and agreed parameters of one comparison edge —
// the one place engines are constructed. Key/RSAKey are this party's
// private halves (its Alice engines decrypt under them); Pub/RSAPub are
// the peer's public halves (its Bob engines answer under them). A party
// holding only one side of the edge leaves the other side nil and gets a
// nil engine for it. Packed turns on slot-packed replies, Uplink the
// packed comparison uplink as well; both ends derive identical packers
// because they are functions of the key, the bound and MaskBits alone.
// Up/Down, when non-nil, receive the masked engines' ciphertext counts
// (Alice's request leg, Bob's reply leg).
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
}

// Engines builds the edge's comparator pair over [0, bound].
func (e Edge) Engines(bound int64) (Alice, Bob, error) {
	var a Alice
	var b Bob
	switch e.Kind {
	case EngineYMPP:
		if bound+2 > yao.MaxDomain {
			return nil, nil, fmt.Errorf("compare: comparison domain %d exceeds YMPP limit %d; use the masked engine or a smaller grid", bound+2, int64(yao.MaxDomain))
		}
		if e.RSAKey != nil {
			a = &YMPPAlice{Key: e.RSAKey, Max: bound, Random: e.Random, Pool: e.Pool}
		}
		if e.RSAPub != nil {
			b = &YMPPBob{Pub: e.RSAPub, Max: bound, Random: e.Random}
		}
	case EngineMasked:
		// packers sizes the reply and uplink packers under one key.
		packers := func(pub *paillier.PublicKey) (cp, up *encoding.Packer, err error) {
			limit := new(big.Int).Lsh(big.NewInt(bound+2), uint(e.MaskBits))
			if limit.Cmp(pub.PlaintextBound()) >= 0 {
				return nil, nil, fmt.Errorf("compare: bound %d with %d mask bits overflows the %d-bit Paillier plaintext space", bound, e.MaskBits, pub.Bits())
			}
			if e.Packed {
				if cp, err = encoding.NewComparePacker(pub.PlaintextBound(), bound, e.MaskBits); err != nil {
					return nil, nil, fmt.Errorf("compare: comparison packer: %w", err)
				}
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
			a = &MaskedAlice{Key: e.Key, Max: bound, Random: e.Random, Pool: e.Pool, Packer: cp, UplinkPacker: up, Sent: e.Up}
		}
		if e.Pub != nil {
			cp, up, err := packers(e.Pub)
			if err != nil {
				return nil, nil, err
			}
			b = &MaskedBob{Pub: e.Pub, Max: bound, MaskBits: e.MaskBits, Random: e.Random, Pool: e.Pool, Packer: cp, UplinkPacker: up, Sent: e.Down}
		}
	default:
		return nil, nil, fmt.Errorf("compare: unknown engine %q", e.Kind)
	}
	return a, b, nil
}

// NewMaskedPair builds both sides of a masked engine from one Paillier key
// pair, validating that masked values cannot wrap the plaintext space:
// 2^κ·(bound+1) must stay below n/2.
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

func (a *MaskedAlice) run(conn transport.Conn, v int64, pred byte) (bool, error) {
	if err := checkInput(v, a.Max); err != nil {
		return false, err
	}
	random := a.Random
	if random == nil {
		random = rand.Reader
	}
	ca, err := a.Key.Encrypt(random, big.NewInt(v))
	if err != nil {
		return false, err
	}
	msg := transport.NewBuilder().PutUint(uint64(pred)).PutBig(ca)
	if err := transport.SendMsg(conn, msg); err != nil {
		return false, fmt.Errorf("compare: alice send: %w", err)
	}
	addSent(a.Sent, 1)
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return false, fmt.Errorf("compare: alice recv: %w", err)
	}
	ct := r.Big()
	if r.Err() != nil {
		return false, r.Err()
	}
	t, err := a.Key.DecryptSigned(ct)
	if err != nil {
		return false, err
	}
	// t = r·(b′−a) + r′ with 0 ≤ r′ < r, so t ≥ 0 ⟺ a ≤ b′.
	le := t.Sign() >= 0
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBool(le)); err != nil {
		return false, fmt.Errorf("compare: alice send result: %w", err)
	}
	return le, nil
}

// LessEq decides a ≤ b.
func (a *MaskedAlice) LessEq(conn transport.Conn, v int64) (bool, error) {
	return a.run(conn, v, predLessEq)
}

// Less decides a < b.
func (a *MaskedAlice) Less(conn transport.Conn, v int64) (bool, error) {
	return a.run(conn, v, predLess)
}

func (a *MaskedAlice) Bound() int64 { return a.Max }
func (a *MaskedAlice) Name() string { return string(EngineMasked) }

func (b *MaskedBob) run(conn transport.Conn, v int64, pred byte) (bool, error) {
	if err := checkInput(v, b.Max); err != nil {
		return false, err
	}
	random := b.Random
	if random == nil {
		random = rand.Reader
	}
	r, err := transport.RecvMsg(conn)
	if err != nil {
		return false, fmt.Errorf("compare: bob recv: %w", err)
	}
	gotPred := byte(r.Uint())
	ca := r.Big()
	if r.Err() != nil {
		return false, r.Err()
	}
	if gotPred != pred {
		return false, fmt.Errorf("%w: alice=%d bob=%d", ErrPredicateMismatch, gotPred, pred)
	}
	bVal := v
	if pred == predLess {
		// a < b ⟺ a ≤ b−1.
		bVal = v - 1
	}
	maskBits := b.MaskBits
	if maskBits <= 0 {
		maskBits = DefaultMaskBits
	}
	// r ∈ [1, 2^κ), r′ ∈ [0, r): t = r·(b−a) + r′ keeps sign(b−a).
	rMask, err := rand.Int(random, new(big.Int).Lsh(big.NewInt(1), uint(maskBits)))
	if err != nil {
		return false, err
	}
	rMask.Add(rMask, big.NewInt(1))
	rPrime, err := rand.Int(random, rMask)
	if err != nil {
		return false, err
	}
	// E(t) = E(a)^(−r) · E(b·r + r′)
	negR := new(big.Int).Neg(rMask)
	term1, err := b.Pub.Mul(ca, negR)
	if err != nil {
		return false, err
	}
	plain := new(big.Int).Mul(big.NewInt(bVal), rMask)
	plain.Add(plain, rPrime)
	term2, err := b.Pub.Encrypt(random, plain)
	if err != nil {
		return false, err
	}
	ct, err := b.Pub.Add(term1, term2)
	if err != nil {
		return false, err
	}
	if err := transport.SendMsg(conn, transport.NewBuilder().PutBig(ct)); err != nil {
		return false, fmt.Errorf("compare: bob send: %w", err)
	}
	addSent(b.Sent, 1)
	res, err := transport.RecvMsg(conn)
	if err != nil {
		return false, fmt.Errorf("compare: bob recv result: %w", err)
	}
	le := res.Bool()
	if res.Err() != nil {
		return false, res.Err()
	}
	return le, nil
}

// LessEq decides a ≤ b.
func (b *MaskedBob) LessEq(conn transport.Conn, v int64) (bool, error) {
	return b.run(conn, v, predLessEq)
}

// Less decides a < b.
func (b *MaskedBob) Less(conn transport.Conn, v int64) (bool, error) {
	return b.run(conn, v, predLess)
}

func (b *MaskedBob) Bound() int64 { return b.Max }
func (b *MaskedBob) Name() string { return string(EngineMasked) }

var (
	_ Alice = (*YMPPAlice)(nil)
	_ Bob   = (*YMPPBob)(nil)
	_ Alice = (*MaskedAlice)(nil)
	_ Bob   = (*MaskedBob)(nil)
)
