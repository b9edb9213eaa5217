package main

import (
	"math/rand"

	"repro/internal/dataset"
)

// Inputs are made in two steps. The workload fixes a template: Gaussian
// blobs (dataset.Blobs, template seed below) quantised onto a square of
// span×span grid points, dealt to the parties in a fixed order. The -seed
// then places the template on the workload's grid: it may mirror either
// axis and shifts the square by a whole number of Eps-cells each way.
// Every coordinate changes with the seed, and Config.Seed changes every
// protocol permutation, but the order of the points and which of them
// share an Eps-cell do not — span is a multiple of the cell width, so
// mirrors and shifts map cells onto cells. The secure protocols' work
// depends on exactly those two things (lockstep batch boundaries follow
// the visiting order), so the deterministic counters — secure
// comparisons, ciphertexts, frames — are the same for every seed and can
// gate exactly. Shuffling the points as well was tried and moved the
// lockstep families' frame counts by ±5 %.

const templateSeed = 20120330 // EDBT 2012; any constant would do

// blobStd is the blobs' standard deviation before quantisation (centres
// sit on a circle of radius 4): wide enough that a blob spans several
// Eps-cells and leaves a few noise points.
const blobStd = 0.25

// layout says where a workload's points may lie: on {0..grid-1}², with
// Eps-cells of width cell and the template confined to span×span points.
type layout struct{ grid, cell, span int }

var (
	layout64 = layout{grid: 64, cell: 4, span: 48} // Eps 4: 5×5 shifts
	layout16 = layout{grid: 16, cell: 2, span: 12} // Eps 2: 3×3 shifts
)

// template returns n quantised blob points on {0..span-1}².
func (l layout) template(n int) [][]float64 {
	q, _ := dataset.Quantize(dataset.Blobs(n, blobs, blobStd, templateSeed), l.span)
	return q.Points
}

// placement is the seed's choice of where the template lands.
type placement struct {
	flipX, flipY bool
	dx, dy, max  float64
}

func (l layout) place(rng *rand.Rand) placement {
	shifts := (l.grid-l.span)/l.cell + 1
	return placement{
		flipX: rng.Intn(2) == 1,
		flipY: rng.Intn(2) == 1,
		dx:    float64(rng.Intn(shifts) * l.cell),
		dy:    float64(rng.Intn(shifts) * l.cell),
		max:   float64(l.span - 1),
	}
}

func (p placement) point(q []float64) []float64 {
	x, y := q[0], q[1]
	if p.flipX {
		x = p.max - x
	}
	if p.flipY {
		y = p.max - y
	}
	return []float64{x + p.dx, y + p.dy}
}

// points places a group of template points, keeping their order.
func (p placement) points(pts [][]float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, q := range pts {
		out[i] = p.point(q)
	}
	return out
}

// blobs is the number of Gaussians in the template; dataset.Blobs draws
// point i from Gaussian i mod blobs.
const blobs = 3

// deal splits pts over k hands so that every hand holds a share of every
// blob: the members of one blob go round the hands in turn.
func deal(pts [][]float64, k int) [][][]float64 {
	hands := make([][][]float64, k)
	for i, p := range pts {
		h := (i / blobs) % k
		hands[h] = append(hands[h], p)
	}
	return hands
}

// concat joins groups of points in order.
func concat(groups ...[][]float64) [][]float64 {
	var out [][]float64
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
