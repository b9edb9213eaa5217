// Package fixedpoint converts floating-point coordinates to the non-negative
// scaled integers the cryptographic protocols operate on.
//
// The paper's protocols ("both Alice and Bob transform their inputs to
// positive integers", §4.1) compare squared Euclidean distances against
// Eps² on integers. A Codec fixes a scale factor S and an offset so that a
// raw coordinate x maps to round((x+offset)·S) ≥ 0. Distances computed on
// encoded coordinates equal S²·dist²(raw) up to rounding; when inputs already
// sit on the integer grid implied by S the mapping is exact and private
// protocol decisions match plaintext DBSCAN bit-for-bit.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
)

// Codec scales raw float64 coordinates into non-negative integers.
// The zero value is not usable; construct with New.
type Codec struct {
	scale  float64
	offset float64
	maxAbs float64 // largest encodable |x+offset| before overflow guard trips
}

// New returns a Codec that maps x to round((x+offset)·scale).
// scale must be positive and finite.
func New(scale, offset float64) (*Codec, error) {
	if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return nil, fmt.Errorf("fixedpoint: invalid scale %v", scale)
	}
	if math.IsInf(offset, 0) || math.IsNaN(offset) {
		return nil, fmt.Errorf("fixedpoint: invalid offset %v", offset)
	}
	return &Codec{scale: scale, offset: offset, maxAbs: float64(math.MaxInt32)}, nil
}

// Scale returns the multiplicative scale factor.
func (c *Codec) Scale() float64 { return c.scale }

// ErrOutOfRange reports a coordinate that cannot be encoded without
// overflowing the protocol integer domain.
var ErrOutOfRange = errors.New("fixedpoint: coordinate out of encodable range")

// Encode maps one raw coordinate to its scaled integer form.
func (c *Codec) Encode(x float64) (int64, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("%w: %v", ErrOutOfRange, x)
	}
	v := (x + c.offset) * c.scale
	if v < 0 {
		return 0, fmt.Errorf("%w: %v maps below zero (offset too small)", ErrOutOfRange, x)
	}
	if v > c.maxAbs {
		return 0, fmt.Errorf("%w: %v exceeds %v", ErrOutOfRange, x, c.maxAbs)
	}
	return int64(math.Round(v)), nil
}

// Decode maps a scaled integer back to raw units. Encode followed by Decode
// loses at most 1/(2·scale) per coordinate.
func (c *Codec) Decode(v int64) float64 {
	return float64(v)/c.scale - c.offset
}

// EncodePoint encodes every coordinate of a point.
func (c *Codec) EncodePoint(p []float64) ([]int64, error) {
	out := make([]int64, len(p))
	for i, x := range p {
		v, err := c.Encode(x)
		if err != nil {
			return nil, fmt.Errorf("coordinate %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// EncodePoints encodes a whole dataset.
func (c *Codec) EncodePoints(ps [][]float64) ([][]int64, error) {
	out := make([][]int64, len(ps))
	for i, p := range ps {
		q, err := c.EncodePoint(p)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out[i] = q
	}
	return out, nil
}

// EpsSquared converts a raw-unit radius eps into the scaled squared
// threshold used by the protocols: floor((eps·scale)²). A pair is within
// eps iff its scaled squared distance is ≤ EpsSquared, matching the
// paper's dist² ≤ Eps² comparison.
func (c *Codec) EpsSquared(eps float64) (int64, error) {
	if !(eps >= 0) || math.IsInf(eps, 0) {
		return 0, fmt.Errorf("fixedpoint: invalid eps %v", eps)
	}
	s := eps * c.scale
	if s > math.MaxInt32 {
		return 0, fmt.Errorf("%w: eps %v", ErrOutOfRange, eps)
	}
	return int64(math.Floor(s*s + 1e-9)), nil
}

// DistSq returns the squared Euclidean distance between two encoded points.
func DistSq(a, b []int64) int64 {
	if len(a) != len(b) {
		panic("fixedpoint: dimension mismatch")
	}
	var s int64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// MaxDistSqBound returns an inclusive upper bound on the scaled squared
// distance between any two points whose encoded coordinates lie in
// [0, maxCoord], in dim dimensions. Used to size comparison domains (the
// YMPP n0 parameter).
func MaxDistSqBound(maxCoord int64, dim int) int64 {
	return int64(dim) * maxCoord * maxCoord
}
