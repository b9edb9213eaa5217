package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/compare"
	"repro/internal/fixedpoint"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// Default parameter values; see Config.
const (
	DefaultPaillierBits  = 1024
	DefaultRSABits       = 512
	DefaultMaxCoord      = 63
	DefaultCmpMaskBits   = 40
	DefaultShareMaskBits = 10
	DefaultPruneQuantum  = 4
)

// Config carries every parameter both parties must agree on. The session
// handshake verifies agreement field by field and aborts on mismatch.
type Config struct {
	// Eps and MinPts are the global density parameters (§3.1). MinPts
	// counts a point's own membership in its Eps-neighbourhood, as in
	// Ester et al.
	Eps    float64
	MinPts int

	// Scale and Offset define the fixed-point encoding: raw coordinate x
	// maps to round((x+Offset)·Scale) ≥ 0. Defaults: Scale 1, Offset 0 —
	// i.e. data already on a non-negative integer grid.
	Scale  float64
	Offset float64

	// MaxCoord is the public inclusive bound on encoded coordinates. It
	// sizes the comparison domain (YMPP's n0); the protocols reject any
	// point that encodes outside [0, MaxCoord].
	MaxCoord int64

	// PaillierBits and RSABits size the session key pairs.
	PaillierBits int
	RSABits      int

	// Engine selects the secure comparison implementation: the paper's
	// YMPP (default) or the masked-sign extension for large domains.
	Engine compare.EngineKind

	// CmpMaskBits is the masked engine's multiplicative mask size κ.
	CmpMaskBits int

	// ShareMaskBits sizes the §5 distance-share masks: v_i is uniform in
	// [0, 2^ShareMaskBits). Larger masks hide shares better but enlarge
	// the YMPP comparison domain (compare.Edge rejects one beyond
	// yao.MaxDomain).
	ShareMaskBits int

	// Selection picks the §5 k-th order statistic algorithm: the O(kn)
	// scan (default) or quickselect.
	Selection SelectionKind

	// Batching selects between the batched round structure (default: one
	// constant-round comparison batch per settle chunk, per lockstep chunk
	// and per enhanced selection round) and the paper-literal sequential
	// structure (one secure-comparison sub-protocol round trip per
	// candidate pair), kept for A/B
	// measurement. Both paths produce identical labels and identical
	// leakage Ledgers; the equivalence harness in core_test enforces this.
	Batching BatchMode

	// Pruning selects the candidate-set structure of the secure distance
	// phases. Under the default grid mode each party buckets its data into
	// an Eps-width grid (internal/spatial), the parties exchange padded
	// per-cell occupancy once per session, and every region query runs its
	// cryptographic phases only against the ≤3^d adjacent candidate cells
	// instead of every peer point — identical labels, ~O(n·k) instead of
	// O(n·nPeer) secure comparisons per pass. The index disclosure is
	// recorded in the Ledger's Index* classes. "off" keeps the exhaustive
	// paper-literal candidate set, the pruning equivalence harness's
	// reference.
	Pruning PruneMode

	// PruneQuantum is the padding granularity of the disclosed per-cell
	// counts: occupancies are rounded up to the next multiple, so the index
	// reveals cell occupancy only to quantum precision. Both parties must
	// agree (handshake-checked); default DefaultPruneQuantum.
	PruneQuantum int

	// Packing selects the plaintext encoding of the Paillier phases: the
	// slot count S of one exchange that every mode runs alike. An HDP settle
	// chunk is one row-dot exchange whose replies pack one exact dot
	// product a slot (hdp.go), and an enhanced chunk one share exchange
	// whose replies pack across queries. Under the default slots mode those
	// replies, the arbitrary family's masked cross terms, the masked
	// comparison engine's replies and the ring's accumulated shares pack S
	// values into one ciphertext via the slot-shifted encoding of
	// internal/encoding, cutting ciphertexts and bytes on the wire by up to
	// S× per frame; S derives from the session key's plaintext space and the
	// handshake-agreed value/mask magnitudes, so both parties compute it
	// identically. "full" extends slots with the packed comparison uplink
	// (dedup-grouped base ciphertexts with per-slot multipliers, and derived
	// bases — zero uplink ciphertexts — for the enhanced family's
	// dot-product comparisons). "off" is S = 1, one value per ciphertext,
	// the packing equivalence harness's reference. Labels and non-index
	// Ledgers are identical in all modes — the packing equivalence harness
	// enforces this. slots and full require the batched round structure;
	// the sequential structure runs "off", its default.
	Packing PackMode

	// Parallel is W, the width of the one query scheduler every family
	// runs on (parallel.go): a driving pass settles its secure decisions
	// before its walk — the HDP settle chunks, the enhanced core queries,
	// or the chunks of the pair matrix for the vertical/arbitrary families
	// — dealt over W worker channels that run at once, overlapping their
	// round trips. W = 1 (the default)
	// is one worker on the session's bare connection; W > 1 multiplexes W
	// logical channels over it (transport.Mux). Labels and non-index
	// Ledgers do not depend on W (the parallel equivalence harness
	// enforces this); only frame interleaving does. Both parties must
	// agree (handshake-checked). W > 1 requires the batched round
	// structure.
	Parallel int

	// Pool, when non-nil, is the process-shared crypto worker pool this
	// session's Paillier/RSA batch arithmetic runs on — normally injected
	// by SessionManager.Configure so all sessions of one server share one
	// bounded pool. Nil keeps the solo-session default: per-call
	// GOMAXPROCS fan-out. Local resource only; not handshake-checked.
	Pool *paillier.Pool

	// Seed, when non-zero, makes the per-query permutations of Algorithm 4
	// deterministic for reproducible experiments. Zero draws them from
	// crypto/rand.
	Seed int64

	// Random supplies cryptographic randomness; nil means crypto/rand.
	Random io.Reader
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.MaxCoord == 0 {
		c.MaxCoord = DefaultMaxCoord
	}
	if c.PaillierBits == 0 {
		c.PaillierBits = DefaultPaillierBits
	}
	if c.RSABits == 0 {
		c.RSABits = DefaultRSABits
	}
	if c.Engine == "" {
		c.Engine = compare.EngineYMPP
	}
	if c.CmpMaskBits == 0 {
		c.CmpMaskBits = DefaultCmpMaskBits
	}
	if c.ShareMaskBits == 0 {
		c.ShareMaskBits = DefaultShareMaskBits
	}
	if c.Selection == "" {
		c.Selection = SelectionScan
	}
	if c.Batching == "" {
		c.Batching = BatchModeBatched
	}
	if c.Pruning == "" {
		c.Pruning = PruneGrid
	}
	if c.PruneQuantum == 0 {
		c.PruneQuantum = DefaultPruneQuantum
	}
	if c.Packing == "" {
		if c.Batching == BatchModeSequential {
			c.Packing = PackOff
		} else {
			c.Packing = PackSlots
		}
	}
	if c.Parallel == 0 {
		c.Parallel = 1
	}
	return c
}

// Normalize fills in defaults and validates the result — the form every
// session constructor (two-party, ring and mesh) works on.
func (c Config) Normalize() (Config, error) {
	c = c.withDefaults()
	return c, c.validate()
}

// validate checks the filled-in configuration.
func (c Config) validate() error {
	if !(c.Eps > 0) || math.IsInf(c.Eps, 0) || math.IsNaN(c.Eps) {
		return fmt.Errorf("core: Eps must be positive and finite, got %v", c.Eps)
	}
	if c.MinPts < 1 {
		return fmt.Errorf("core: MinPts must be ≥ 1, got %d", c.MinPts)
	}
	if c.MaxCoord < 1 {
		return fmt.Errorf("core: MaxCoord must be ≥ 1, got %d", c.MaxCoord)
	}
	if c.ShareMaskBits < 1 || c.ShareMaskBits > 50 {
		return fmt.Errorf("core: ShareMaskBits %d outside [1,50]", c.ShareMaskBits)
	}
	if _, err := compare.ParseEngine(string(c.Engine)); err != nil {
		return err
	}
	if _, err := ParseSelection(string(c.Selection)); err != nil {
		return err
	}
	if _, err := ParseBatchMode(string(c.Batching)); err != nil {
		return err
	}
	if _, err := ParsePruneMode(string(c.Pruning)); err != nil {
		return err
	}
	if c.PruneQuantum < 1 {
		return fmt.Errorf("core: PruneQuantum must be ≥ 1, got %d", c.PruneQuantum)
	}
	if c.Parallel < 1 || c.Parallel > transport.MaxMuxChannels {
		return fmt.Errorf("core: Parallel %d outside [1,%d]", c.Parallel, transport.MaxMuxChannels)
	}
	if c.Parallel > 1 && c.Batching != BatchModeBatched {
		return fmt.Errorf("core: Parallel %d requires Batching %q (the scheduler dispatches batched sub-protocols)", c.Parallel, BatchModeBatched)
	}
	if _, err := ParsePackMode(string(c.Packing)); err != nil {
		return err
	}
	if c.Packing != PackOff && c.Batching != BatchModeBatched {
		return fmt.Errorf("core: Packing %q requires Batching %q (only batched frames carry packed plaintexts)", c.Packing, BatchModeBatched)
	}
	return nil
}

// BatchMode selects the comparison round structure.
type BatchMode string

// The two round structures.
const (
	// BatchModeBatched packs the cryptographic payloads of all independent
	// comparisons of one protocol step into single frames: a whole region
	// query (or lockstep chunk of up to 256 pair decisions) costs a
	// constant number of round trips.
	BatchModeBatched BatchMode = "batched"
	// BatchModeSequential runs one complete comparison sub-protocol per
	// candidate pair — the paper-literal structure, kept as the A/B
	// baseline for the communication experiments.
	BatchModeSequential BatchMode = "sequential"
)

// ParseBatchMode validates a batch mode name from flags or config.
func ParseBatchMode(s string) (BatchMode, error) {
	switch BatchMode(s) {
	case BatchModeBatched, BatchModeSequential:
		return BatchMode(s), nil
	}
	return "", fmt.Errorf("core: unknown batch mode %q (want %q or %q)", s, BatchModeBatched, BatchModeSequential)
}

// PruneMode selects the candidate-set structure of the distance phases.
type PruneMode string

// The two pruning modes.
const (
	// PruneGrid runs secure region queries only against the Eps-grid
	// candidate cells of the query point, after a one-time padded index
	// exchange (recorded in the Ledger's Index* classes).
	PruneGrid PruneMode = "grid"
	// PruneOff keeps the exhaustive candidate set of the paper — every
	// peer point (or every pair) enters the cryptographic phases.
	PruneOff PruneMode = "off"
)

// ParsePruneMode validates a pruning mode name from flags or config.
func ParsePruneMode(s string) (PruneMode, error) {
	switch PruneMode(s) {
	case PruneGrid, PruneOff:
		return PruneMode(s), nil
	}
	return "", fmt.Errorf("core: unknown pruning mode %q (want %q or %q)", s, PruneGrid, PruneOff)
}

// PackMode selects the plaintext encoding of the Paillier phases.
type PackMode string

// The three packing modes.
const (
	// PackSlots packs S values per Paillier plaintext via the slot-shifted
	// encoding (internal/encoding): masked-product and comparison reply
	// frames carry ⌈n/S⌉ ciphertexts instead of n.
	PackSlots PackMode = "slots"
	// PackFull additionally packs the masked-comparison *uplink*: batches
	// dedup repeated operands into shared base ciphertexts (the oracle
	// folds a fresh per-slot multiplier into each slot, so masking
	// independence is untouched), and the enhanced family derives its
	// comparison bases from retained dot-product ciphertexts — zero
	// uplink ciphertexts for those rounds. Falls back per batch to the
	// slots wire form when grouping cannot win, so full never costs more
	// ciphertexts than slots.
	PackFull PackMode = "full"
	// PackOff keeps one value per ciphertext (S = 1) — the reference the
	// packing equivalence harness compares slots and full against.
	PackOff PackMode = "off"
)

// ParsePackMode validates a packing mode name from flags or config.
func ParsePackMode(s string) (PackMode, error) {
	switch PackMode(s) {
	case PackSlots, PackFull, PackOff:
		return PackMode(s), nil
	}
	return "", fmt.Errorf("core: unknown packing mode %q (want %q, %q or %q)", s, PackSlots, PackFull, PackOff)
}

// codec builds the fixed-point codec for this configuration.
func (c Config) codec() (*fixedpoint.Codec, error) {
	return fixedpoint.New(c.Scale, c.Offset)
}

// Codec returns the fixed-point codec implied by the configuration, with
// defaults applied — the encoding the protocols use internally, exposed
// for oracles and experiment harnesses.
func (c Config) Codec() (*fixedpoint.Codec, error) {
	return c.withDefaults().codec()
}

// EncodePoints fixed-point encodes a party's raw points and rejects any
// that land outside [0, MaxCoord].
func (c Config) EncodePoints(points [][]float64) ([][]int64, error) {
	codec, err := c.codec()
	if err != nil {
		return nil, err
	}
	enc, err := codec.EncodePoints(points)
	if err != nil {
		return nil, err
	}
	for i, p := range enc {
		for j, v := range p {
			if v > c.MaxCoord {
				return nil, fmt.Errorf("core: point %d coordinate %d encodes to %d > MaxCoord %d", i, j, v, c.MaxCoord)
			}
		}
	}
	return enc, nil
}

// epsSquared returns the scaled integer threshold compared against dist².
func (c Config) epsSquared() (int64, error) {
	codec, err := c.codec()
	if err != nil {
		return 0, err
	}
	return codec.EpsSquared(c.Eps)
}
