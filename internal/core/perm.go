package core

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Response-permutation sources (Pair.channelRng). Algorithm 4's
// SetOfPointsOfBobPermutation hides which responder point answered which
// slot of a region query only as well as the permutation is
// unpredictable, so a session draws its Fisher–Yates swaps from its
// channel's crypto stream (cryptoPerm), never from math/rand, whose
// future a few outputs reveal; Config.Seed != 0 selects seededPerm.

// PermSource produces uniform random permutations: what a responder's
// serve function draws from, whichever of the two sources channelRng
// picked.
type PermSource interface {
	Perm(n int) []int
}

// cryptoPerm draws Fisher–Yates swaps from r via rejection sampling
// (unbiased). It is goroutine-safe exactly when the reader is.
type cryptoPerm struct{ r io.Reader }

func (p cryptoPerm) Perm(n int) []int {
	return fisherYates(n, func(k uint64) uint64 {
		// Rejection sampling: draw 64 bits, retry in the biased tail.
		limit := (^uint64(0) / k) * k
		var b [8]byte
		for {
			if _, err := io.ReadFull(p.r, b[:]); err != nil {
				// The session's randomness source failing is unrecoverable
				// mid-protocol; surface it loudly rather than degrade the
				// permutation.
				panic(fmt.Sprintf("core: permutation randomness: %v", err))
			}
			v := binary.LittleEndian.Uint64(b[:])
			if v < limit {
				return v % k
			}
		}
	})
}

// seededPerm is a splitmix64 generator — tiny, full-period, and entirely
// ours, so seeded determinism does not pull math/rand into the protocol
// packages — feeding the same rejection-sampled Fisher–Yates as
// cryptoPerm. Not for production use: its output is trivially predictable.
type seededPerm struct{ state uint64 }

func newSeededPerm(seed uint64) *seededPerm {
	return &seededPerm{state: seed}
}

func (p *seededPerm) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *seededPerm) Perm(n int) []int {
	return fisherYates(n, func(k uint64) uint64 {
		limit := (^uint64(0) / k) * k
		for {
			if v := p.next(); v < limit {
				return v % k
			}
		}
	})
}

// fisherYates builds a uniform permutation of [0, n) from a uniform
// draw-below-k primitive.
func fisherYates(n int, below func(k uint64) uint64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(below(uint64(i + 1)))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
