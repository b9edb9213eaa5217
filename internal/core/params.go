package core

import (
	"fmt"

	"repro/internal/compare"
	"repro/internal/transport"
)

// Params is the set of protocol parameters every participant must agree
// on, in handshake wire order. It is the one agreed-parameter codec: the
// two-party handshake (also spoken by mesh edges) carries it between the
// role and the data dimensions, and the multiparty ring embeds it in its
// circulating token.
type Params struct {
	EpsSq         int64 // scaled integer threshold, before the dist²-bound clamp
	MinPts        int
	MaxCoord      int64
	Engine        compare.EngineKind
	CmpMaskBits   int
	ShareMaskBits int
	Selection     SelectionKind
	Batching      BatchMode
	Packing       PackMode
	Pruning       PruneMode
	PruneQuantum  int
	Parallel      int
}

// Params extracts the agreed parameters of a normalised configuration.
func (c Config) Params() (Params, error) {
	epsSq, err := c.epsSquared()
	return Params{
		EpsSq: epsSq, MinPts: c.MinPts, MaxCoord: c.MaxCoord, Engine: c.Engine,
		CmpMaskBits: c.CmpMaskBits, ShareMaskBits: c.ShareMaskBits, Selection: c.Selection,
		Batching: c.Batching, Packing: c.Packing, Pruning: c.Pruning,
		PruneQuantum: c.PruneQuantum, Parallel: c.Parallel,
	}, err
}

// Encode appends the parameters to a frame under construction.
func (p Params) Encode(b *transport.Builder) *transport.Builder {
	return b.PutInt(p.EpsSq).PutUint(uint64(p.MinPts)).PutInt(p.MaxCoord).PutString(string(p.Engine)).
		PutUint(uint64(p.CmpMaskBits)).PutUint(uint64(p.ShareMaskBits)).PutString(string(p.Selection)).
		PutString(string(p.Batching)).PutString(string(p.Packing)).PutString(string(p.Pruning)).
		PutUint(uint64(p.PruneQuantum)).PutUint(uint64(p.Parallel))
}

// DecodeParams reads what Encode wrote; a malformed frame surfaces
// through r.Err().
func DecodeParams(r *transport.Reader) Params {
	return Params{
		EpsSq: r.Int(), MinPts: int(r.Uint()), MaxCoord: r.Int(), Engine: compare.EngineKind(r.String()),
		CmpMaskBits: int(r.Uint()), ShareMaskBits: int(r.Uint()), Selection: SelectionKind(r.String()),
		Batching: BatchMode(r.String()), Packing: PackMode(r.String()), Pruning: PruneMode(r.String()),
		PruneQuantum: int(r.Uint()), Parallel: int(r.Uint()),
	}
}

// Diff reports the first parameter on which p (ours) and q (the peer's)
// disagree as an ErrHandshake-wrapped error naming it, or nil.
func (p Params) Diff(q Params) error {
	for _, f := range []struct {
		name       string
		ours, peer any
	}{
		{"Eps²", p.EpsSq, q.EpsSq},
		{"MinPts", p.MinPts, q.MinPts},
		{"MaxCoord", p.MaxCoord, q.MaxCoord},
		{"engine", p.Engine, q.Engine},
		{"CmpMaskBits", p.CmpMaskBits, q.CmpMaskBits},
		{"ShareMaskBits", p.ShareMaskBits, q.ShareMaskBits},
		{"selection", p.Selection, q.Selection},
		{"batching", p.Batching, q.Batching},
		{"packing", p.Packing, q.Packing},
		{"pruning", p.Pruning, q.Pruning},
		{"prune quantum", p.PruneQuantum, q.PruneQuantum},
		{"parallel width", p.Parallel, q.Parallel},
	} {
		if f.ours != f.peer {
			return fmt.Errorf("%w: %s %v vs %v", ErrHandshake, f.name, f.ours, f.peer)
		}
	}
	return nil
}
