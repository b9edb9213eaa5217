package core

import (
	"fmt"
	"math/big"

	"repro/internal/encoding"
	"repro/internal/mpc"
	"repro/internal/partition"
	"repro/internal/transport"
)

// The per-pair drivers of the vertical and arbitrary families as they stood
// up to handshake v14, before a lockstep chunk became one exchange at
// every batching and packing: under sequential batching every pair of a
// chunk was one complete sub-protocol — for arbitrary its own masked
// Multiplication Protocol round over the pair's mixed cells, with
// zero-sum masks, then one comparison. Kept verbatim — apart from the
// names, and from productPackers, which returns the packers the masked
// HDP oracle (perquery_test.go) used to read off the Pair — as the oracle
// the lockstep differential (lockstep_oracle_test.go) runs the same
// lifecycles through.

// lessOne and lessEqOne decide one comparison on an engine of either
// side: a batch of one, three frames.
func lessOne(conn transport.Conn, eng interface {
	BatchLess(transport.Conn, []int64) ([]bool, error)
}, v int64) (bool, error) {
	return firstBit(eng.BatchLess(conn, []int64{v}))
}

func lessEqOne(conn transport.Conn, eng interface {
	BatchLessEq(transport.Conn, []int64) ([]bool, error)
}, v int64) (bool, error) {
	return firstBit(eng.BatchLessEq(conn, []int64{v}))
}

// firstBit unwraps the decision of a batch of one.
func firstBit(bits []bool, err error) (bool, error) {
	if err == nil && len(bits) != 1 {
		err = fmt.Errorf("core: %d decisions from a batch of one", len(bits))
	}
	if err != nil {
		return false, err
	}
	return bits[0], nil
}

// PerPairOracle adapts a one-pair oracle to LockstepCluster's batch hook:
// a chunk is decided one complete sub-protocol at a time, in chunk order.
// This is the whole of Config.Batching = "sequential" in the lockstep
// families — the paper-literal round structure the equivalence harnesses
// use as their reference, over the same chunks; the driver above never
// sees it.
func PerPairOracle(pairLE func(i, j int) (bool, error)) func(ch int, pairs [][2]int) ([]bool, error) {
	return func(_ int, pairs [][2]int) ([]bool, error) {
		out := make([]bool, len(pairs))
		for t, pr := range pairs {
			v, err := pairLE(pr[0], pr[1])
			if err != nil {
				return nil, err
			}
			out[t] = v
		}
		return out, nil
	}
}

// newPerPairVerticalSession is NewVerticalSession on the per-pair driver.
func newPerPairVerticalSession(conn transport.Conn, cfg Config, role Role, attrs [][]float64) (*Session, error) {
	t, vs, err := newVerticalSession(conn, cfg, role, attrs)
	if err == nil {
		t.runOnce = func() (*Result, error) { return perPairVerticalRunOnce(t, vs) }
	}
	return t, err
}

func perPairVerticalRunOnce(t *Session, vs *vStream) (*Result, error) {
	s := t.s
	role := s.role
	enc := vs.enc
	engA, engB, err := s.DistEngines()
	if err != nil {
		return nil, err
	}
	onPruned := func([2]int) { s.led(func(l *Ledger) { l.PairDecisions++ }) }
	onCached := func(pr [2]int, in bool) {
		s.led(func(l *Ledger) { l.PairDecisions++ })
		s.cmpCached.Add(1)
	}
	batchOn := PerPairOracle(func(i, j int) (bool, error) {
		conn := t.s.Conns[0]
		setTag(conn, "vdp.cmp")
		s.led(func(l *Ledger) { l.PairDecisions++ })
		partial := partialDistSq(enc, i, j)
		if role == RoleAlice {
			return lessOne(conn, engA[0], partial)
		}
		return lessOne(conn, engB[0], s.responderOperand(engB[0].Bound(), partial))
	})
	labels, clusters, err := LockstepCluster(len(enc), s.cfg.MinPts, s.cfg.Parallel, s.lockstepFrameBytes(engA[0], engB[0]),
		vs.Cache, onCached, PrunedLocalDecider(vs.CellRows, onPruned), batchOn)
	if err != nil {
		return nil, err
	}
	return t.result(labels, clusters), nil
}

// newPerPairArbitrarySession is NewArbitrarySession on the per-pair driver.
func newPerPairArbitrarySession(conn transport.Conn, cfg Config, role Role, values [][]float64, owners [][]partition.Owner) (*Session, error) {
	t, as, err := newArbitrarySession(conn, cfg, role, values, owners)
	if err == nil {
		t.runOnce = func() (*Result, error) { return perPairArbitraryRunOnce(t, as) }
	}
	return t, err
}

func perPairArbitraryRunOnce(t *Session, as *aStream) (*Result, error) {
	s := t.s
	role := s.role
	a := as.a
	engA, engB, err := s.DistEngines()
	if err != nil {
		return nil, err
	}
	n := len(a.enc)
	onPruned := func(pr [2]int) {
		s.led(func(l *Ledger) {
			l.PairDecisions++
			if role == RoleBob && a.hasMixed(pr[0], pr[1]) {
				l.DotProducts++
			}
		})
	}
	onCached := func(pr [2]int, in bool) {
		s.led(func(l *Ledger) {
			l.PairDecisions++
			if role == RoleBob && a.hasMixed(pr[0], pr[1]) {
				l.DotProducts++
			}
		})
		s.cmpCached.Add(1)
	}
	batchOn := PerPairOracle(func(i, j int) (bool, error) {
		conn := t.s.Conns[0]
		ownSum, err := a.localAndCrossSum(conn, i, j)
		if err != nil {
			return false, err
		}
		setTag(conn, "adp.cmp")
		s.led(func(l *Ledger) { l.PairDecisions++ })
		if role == RoleAlice {
			return lessOne(conn, engA[0], ownSum)
		}
		return lessOne(conn, engB[0], s.responderOperand(engB[0].Bound(), ownSum))
	})
	labels, clusters, err := LockstepCluster(n, s.cfg.MinPts, s.cfg.Parallel, s.lockstepFrameBytes(engA[0], engB[0]),
		as.Cache, onCached, PrunedLocalDecider(as.CellRows, onPruned), batchOn)
	if err != nil {
		return nil, err
	}
	return t.result(labels, clusters), nil
}

// localAndCrossSum computes this party's additive share of dist²(d_i, d_j):
// locally-owned attribute terms plus this party's side of the mixed-cell
// cross terms, running one Multiplication Protocol exchange per pair.
func (a *adpState) localAndCrossSum(conn transport.Conn, i, j int) (int64, error) {
	local, mixedVals := a.pairTerms(i, j)
	if len(mixedVals) == 0 {
		return local, nil
	}

	// Cross terms −2ab, Bob receiving (the §4.4 convention: "use Protocol
	// HDP to let Bob get" the horizontal part).
	setTag(conn, "adp.mp")
	if a.role == RoleAlice {
		masks, err := mpc.ZeroSumMasks(a.s.streams[0], len(mixedVals), a.s.zeroSumBound())
		if err != nil {
			return 0, err
		}
		if err := mpc.SenderBatchMultiply(conn, a.s.peerPai, mixedVals, masks, a.s.streams[0], a.s.pool); err != nil {
			return 0, fmt.Errorf("core: adp multiplication: %w", err)
		}
		// Zero-sum masks cancel: Alice's share needs no correction.
		return local, nil
	}
	us, err := mpc.ReceiverBatchMultiply(conn, a.s.paiKey, mixedVals, a.s.streams[0], a.s.pool)
	if err != nil {
		return 0, fmt.Errorf("core: adp multiplication: %w", err)
	}
	cross, err := sumInt64(us)
	if err != nil {
		return 0, err
	}
	a.s.led(func(l *Ledger) { l.DotProducts++ })
	return local - 2*cross, nil
}

// sumInt64 totals masked products, guarding against overflow.
func sumInt64(us []*big.Int) (int64, error) {
	total := new(big.Int)
	for _, u := range us {
		total.Add(total, u)
	}
	if !total.IsInt64() {
		return 0, fmt.Errorf("core: adp cross sum overflows int64")
	}
	return total.Int64(), nil
}

// zeroSumBound returns the zero-sum mask magnitude of the masked-product
// phases. Unpacked, masks are drawn in (−2^62, 2^62), far inside the
// Paillier plaintext space. The packed path needs a bound both parties
// can derive from handshake-agreed parameters so they size identical
// slots, and one that scales with the data so S slots plus their mask
// headroom fit the plaintext space: B = MaxCoord²·2^CmpMaskBits, which
// still hides each product statistically (|x·y| ≤ MaxCoord² and the mask
// is 2^κ times larger).
func (s *Pair) zeroSumBound() *big.Int {
	if !s.packing() {
		return new(big.Int).Lsh(big.NewInt(1), 62)
	}
	b := big.NewInt(s.cfg.MaxCoord * s.cfg.MaxCoord)
	return b.Lsh(b, uint(s.cfg.CmpMaskBits))
}

// productPackers derives the pair's masked-product packers (nil with
// packing off): each slot holds x·y + Σ masks with |x·y| ≤ MaxCoord² and
// up to s.dim zero-sum mask terms of magnitude zeroSumBound (the last
// ZeroSumMasks share is the negated sum of the others, so it can reach
// (m−1)·B). mpPeer sizes the frames sent under the peer's key, mpOwn the
// frames served under our own.
func (s *Pair) productPackers() (mpPeer, mpOwn *encoding.Packer, err error) {
	if !s.packing() {
		return nil, nil, nil
	}
	maxProduct := s.cfg.MaxCoord * s.cfg.MaxCoord
	if mpPeer, err = encoding.NewProductPacker(s.peerPai.PlaintextBound(), maxProduct, s.zeroSumBound(), s.dim); err == nil {
		mpOwn, err = encoding.NewProductPacker(s.paiKey.PlaintextBound(), maxProduct, s.zeroSumBound(), s.dim)
	}
	return mpPeer, mpOwn, err
}
