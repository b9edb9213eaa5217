// Package dataset generates the synthetic workloads used throughout the
// reproduction. The paper has no empirical section and no published data;
// its motivating scenarios (hospital records, spatial databases with
// arbitrary-shaped clusters and noise) are represented here by standard
// density-clustering benchmark shapes: Gaussian blobs, two moons,
// concentric rings, bridged blobs, and uniform background noise.
//
// Every generator is deterministic in its seed. Points can be quantized
// onto a small integer grid (Quantize) so that fixed-point protocol
// decisions are exact and the YMPP comparison domain stays small.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a generated point set with optional ground-truth labels.
type Dataset struct {
	Name   string
	Points [][]float64
	Labels []int // ground truth: cluster id ≥ 1, or -1 for noise; nil if unknown
}

// Dim returns the dimensionality (0 for empty datasets).
func (d Dataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0])
}

// Blobs draws n points from k isotropic Gaussians with the given standard
// deviation, centers spread on a circle of radius 4.
func Blobs(n, k int, std float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for i := range centers {
		angle := 2 * math.Pi * float64(i) / float64(k)
		centers[i] = []float64{4 * math.Cos(angle), 4 * math.Sin(angle)}
	}
	points := make([][]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		points[i] = []float64{
			centers[c][0] + rng.NormFloat64()*std,
			centers[c][1] + rng.NormFloat64()*std,
		}
		labels[i] = c + 1
	}
	return Dataset{Name: fmt.Sprintf("blobs(n=%d,k=%d)", n, k), Points: points, Labels: labels}
}

// BlobsDim draws n points from k Gaussians in dim dimensions; centers sit
// on coordinate axes at distance 4.
func BlobsDim(n, k, dim int, std float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for i := range centers {
		c := make([]float64, dim)
		c[i%dim] = 4 * float64(1+i/dim)
		centers[i] = c
	}
	points := make([][]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		ci := i % k
		p := make([]float64, dim)
		for d := 0; d < dim; d++ {
			p[d] = centers[ci][d] + rng.NormFloat64()*std
		}
		points[i] = p
		labels[i] = ci + 1
	}
	return Dataset{Name: fmt.Sprintf("blobs(n=%d,k=%d,dim=%d)", n, k, dim), Points: points, Labels: labels}
}

// Moons generates the classic two interleaving half-circles — the shape
// k-means cannot separate but DBSCAN can (the paper's introduction).
func Moons(n int, noise float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	labels := make([]int, n)
	half := n / 2
	for i := 0; i < n; i++ {
		var x, y float64
		if i < half {
			t := math.Pi * float64(i) / float64(half)
			x, y = math.Cos(t), math.Sin(t)
			labels[i] = 1
		} else {
			t := math.Pi * float64(i-half) / float64(n-half)
			x, y = 1-math.Cos(t), 0.5-math.Sin(t)
			labels[i] = 2
		}
		points[i] = []float64{x + rng.NormFloat64()*noise, y + rng.NormFloat64()*noise}
	}
	return Dataset{Name: fmt.Sprintf("moons(n=%d)", n), Points: points, Labels: labels}
}

// Rings generates two concentric circles — a cluster completely surrounded
// by another, which the paper's introduction cites as a DBSCAN strength.
func Rings(n int, noise float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	labels := make([]int, n)
	half := n / 2
	for i := 0; i < n; i++ {
		// Evenly spaced angles (with jitter) keep each ring
		// density-connected for any reasonable Eps; uniform random angles
		// leave Θ(log n / n) gaps that break connectivity.
		var r, t float64
		if i < half {
			r = 1.0
			t = 2 * math.Pi * float64(i) / float64(half)
			labels[i] = 1
		} else {
			r = 3.0
			t = 2 * math.Pi * float64(i-half) / float64(n-half)
			labels[i] = 2
		}
		points[i] = []float64{
			r*math.Cos(t) + rng.NormFloat64()*noise,
			r*math.Sin(t) + rng.NormFloat64()*noise,
		}
	}
	return Dataset{Name: fmt.Sprintf("rings(n=%d)", n), Points: points, Labels: labels}
}

// Bridged generates two dense blobs joined by a thin chain of points, so
// true DBSCAN finds one cluster. When the chain is owned by the other
// party, the paper's horizontal Algorithm 3/4 cannot merge the blobs —
// this dataset drives experiment E6's divergence measurement.
func Bridged(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, 0, n)
	labels := make([]int, 0, n)
	blob := (n * 2) / 5
	bridge := n - 2*blob
	for i := 0; i < blob; i++ {
		points = append(points, []float64{-3 + rng.NormFloat64()*0.4, rng.NormFloat64() * 0.4})
		labels = append(labels, 1)
	}
	for i := 0; i < blob; i++ {
		points = append(points, []float64{3 + rng.NormFloat64()*0.4, rng.NormFloat64() * 0.4})
		labels = append(labels, 1)
	}
	for i := 0; i < bridge; i++ {
		t := float64(i+1) / float64(bridge+1)
		points = append(points, []float64{-3 + 6*t, rng.NormFloat64() * 0.1})
		labels = append(labels, 1)
	}
	return Dataset{Name: fmt.Sprintf("bridged(n=%d)", n), Points: points, Labels: labels}
}

// UniformNoiseDim scatters n points uniformly over [lo, hi]^dim with
// label -1.
func UniformNoiseDim(n, dim int, lo, hi float64, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	labels := make([]int, n)
	for i := range points {
		p := make([]float64, dim)
		for d := range p {
			p[d] = lo + rng.Float64()*(hi-lo)
		}
		points[i] = p
		labels[i] = -1
	}
	return Dataset{Name: fmt.Sprintf("noise(n=%d)", n), Points: points, Labels: labels}
}

// WithNoise appends uniform background noise covering the bounding box of
// d (slightly expanded), labelled -1, in d's dimensionality.
func WithNoise(d Dataset, count int, seed int64) Dataset {
	lo, hi := boundingRange(d.Points)
	span := hi - lo
	dim := d.Dim()
	if dim == 0 {
		dim = 2
	}
	noise := UniformNoiseDim(count, dim, lo-0.1*span, hi+0.1*span, seed)
	out := Dataset{
		Name:   d.Name + "+noise",
		Points: append(append([][]float64{}, d.Points...), noise.Points...),
	}
	if d.Labels != nil {
		out.Labels = append(append([]int{}, d.Labels...), noise.Labels...)
	}
	return out
}

func boundingRange(points [][]float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range points {
		for _, x := range p {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 1
	}
	if lo == hi {
		hi = lo + 1
	}
	return lo, hi
}

// Quantize maps all coordinates affinely onto the integer grid
// {0, …, cells−1}^dim, returning a dataset whose float coordinates hold
// exact integers. On such data a fixedpoint.Codec with scale 1 encodes
// losslessly, making private protocol decisions exactly comparable to
// plaintext DBSCAN. It also returns the grid Eps corresponding to a raw
// eps in the original units.
func Quantize(d Dataset, cells int) (Dataset, func(rawEps float64) float64) {
	lo, hi := boundingRange(d.Points)
	scale := float64(cells-1) / (hi - lo)
	out := Dataset{Name: fmt.Sprintf("%s@grid%d", d.Name, cells), Labels: d.Labels}
	out.Points = make([][]float64, len(d.Points))
	for i, p := range d.Points {
		q := make([]float64, len(p))
		for j, x := range p {
			q[j] = math.Round((x - lo) * scale)
		}
		out.Points[i] = q
	}
	return out, func(rawEps float64) float64 { return rawEps * scale }
}

// Concat merges datasets, offsetting labels so cluster ids stay disjoint.
func Concat(name string, ds ...Dataset) Dataset {
	out := Dataset{Name: name}
	offset := 0
	allLabelled := true
	for _, d := range ds {
		if d.Labels == nil {
			allLabelled = false
		}
	}
	for _, d := range ds {
		out.Points = append(out.Points, d.Points...)
		if allLabelled {
			maxLabel := 0
			for _, l := range d.Labels {
				adj := l
				if l > 0 {
					adj = l + offset
					if adj > maxLabel {
						maxLabel = adj
					}
				}
				out.Labels = append(out.Labels, adj)
			}
			if maxLabel > offset {
				offset = maxLabel
			}
		}
	}
	return out
}
