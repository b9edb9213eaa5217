// Package dbscan implements the single-party DBSCAN algorithm of Ester,
// Kriegel, Sander and Xu (KDD 1996) — reference [8] of the reproduced
// paper — with the exact ExpandCluster semantics the paper's Algorithms
// 3–8 extend: a point's Eps-neighbourhood includes the point itself,
// border points join the first core point that reaches them, and noise
// may later be re-labelled as a border point of a subsequent cluster.
//
// It is the correctness oracle for every privacy-preserving protocol in
// internal/core: the vertical and arbitrary protocols must reproduce its
// labelling exactly, and the horizontal protocols are measured against it
// (experiment E6 of internal/experiments).
package dbscan

import (
	"fmt"
	"math"
)

// Label values. Cluster identifiers are 1-based, matching the paper's
// ClusterId := nextId(NOISE) convention.
const (
	// Unclassified marks a point not yet visited.
	Unclassified = -2
	// Noise marks a point in no cluster (Definition 4).
	Noise = -1
)

// Params carries the two global density parameters.
type Params struct {
	Eps    float64 // neighbourhood radius (Definition 1)
	MinPts int     // density threshold, self-inclusive
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Eps > 0) || math.IsInf(p.Eps, 0) || math.IsNaN(p.Eps) {
		return fmt.Errorf("dbscan: Eps must be positive and finite, got %v", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: MinPts must be ≥ 1, got %d", p.MinPts)
	}
	return nil
}

// Result is a clustering outcome.
type Result struct {
	Labels      []int // per point: cluster id ≥ 1, or Noise
	NumClusters int
}

// Cluster runs DBSCAN over float points with Euclidean distance.
func Cluster(points [][]float64, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	epsSq := p.Eps * p.Eps
	neighbors := func(i int) []int {
		var out []int
		for j := range points {
			if distSqFloat(points[i], points[j]) <= epsSq {
				out = append(out, j)
			}
		}
		return out
	}
	labels, k := ClusterGeneric(len(points), neighbors, p.MinPts)
	return Result{Labels: labels, NumClusters: k}, nil
}

// ClusterInt runs DBSCAN over scaled integer points with squared threshold
// epsSq — the exact plaintext counterpart of the private protocols, which
// compare dist² ≤ Eps² on fixed-point integers.
func ClusterInt(points [][]int64, epsSq int64, minPts int) (Result, error) {
	if epsSq < 0 {
		return Result{}, fmt.Errorf("dbscan: negative epsSq %d", epsSq)
	}
	if minPts < 1 {
		return Result{}, fmt.Errorf("dbscan: MinPts must be ≥ 1, got %d", minPts)
	}
	neighbors := func(i int) []int {
		var out []int
		for j := range points {
			if distSqInt(points[i], points[j]) <= epsSq {
				out = append(out, j)
			}
		}
		return out
	}
	labels, k := ClusterGeneric(len(points), neighbors, minPts)
	return Result{Labels: labels, NumClusters: k}, nil
}

// ClusterGeneric is the driver shared by all entry points and by the
// lock-step private protocols (core.LockstepCluster runs it over the pair
// matrix the parties decided jointly): n points addressed by index, an
// opaque region-query function, and the ExpandCluster control flow of the
// paper's Algorithm 5/6 (whose single-party behaviour equals Ester et
// al.). neighbors(i) lists i's Eps-neighbourhood, i included, in ascending
// index order — border-point assignment depends on it — and minPts must be
// at least 1. It returns the labels and the cluster count.
func ClusterGeneric(n int, neighbors func(i int) []int, minPts int) ([]int, int) {
	return ClusterCore(n, neighbors, func(_ int, nbrs []int) bool { return len(nbrs) >= minPts })
}

// ClusterCore is ClusterGeneric with the core test passed in: core(i,
// nbrs) decides whether point i, whose region query neighbors(i) just
// returned nbrs, is a core point. It is called exactly once per region
// query, right after it, in ExpandCluster order — the horizontal private
// protocols (Algorithms 3–4 and 7–8) walk their own points through it,
// adding the peer's side of the density test, and tally their queries in
// it.
func ClusterCore(n int, neighbors func(i int) []int, core func(i int, nbrs []int) bool) ([]int, int) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Unclassified
	}
	clusterID := 0
	for i := 0; i < n; i++ {
		if labels[i] != Unclassified {
			continue
		}
		if expandCluster(i, clusterID+1, labels, neighbors, core) {
			clusterID++
		}
	}
	return labels, clusterID
}

// expandCluster mirrors Algorithm 6 line by line.
func expandCluster(point, clusterID int, labels []int, neighbors func(i int) []int, core func(int, []int) bool) bool {
	seeds := neighbors(point)
	if !core(point, seeds) {
		labels[point] = Noise
		return false
	}
	for _, s := range seeds {
		labels[s] = clusterID
	}
	// seeds.delete(Point)
	queue := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if s != point {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		current := queue[0]
		queue = queue[1:]
		result := neighbors(current)
		if !core(current, result) {
			continue
		}
		for _, r := range result {
			if labels[r] == Unclassified || labels[r] == Noise {
				if labels[r] == Unclassified {
					queue = append(queue, r)
				}
				labels[r] = clusterID
			}
		}
	}
	return true
}

func distSqFloat(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func distSqInt(a, b []int64) int64 {
	var s int64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
