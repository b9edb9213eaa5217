// Package metrics provides clustering-agreement measures used to compare
// private protocol outputs against the plaintext DBSCAN oracle and against
// ground truth: the Adjusted Rand Index, normalized mutual information,
// and exact label-set equality up to cluster renaming. Noise (label −1) is treated as its own
// class by all measures, since DBSCAN's noise set is part of its output
// (Definition 4 of the paper).
package metrics

import (
	"fmt"
	"math"
)

// contingency builds the joint label count table of two labelings.
func contingency(a, b []int) (map[[2]int]int, map[int]int, map[int]int, error) {
	if len(a) != len(b) {
		return nil, nil, nil, fmt.Errorf("metrics: labelings differ in length: %d vs %d", len(a), len(b))
	}
	joint := make(map[[2]int]int)
	ca := make(map[int]int)
	cb := make(map[int]int)
	for i := range a {
		joint[[2]int{a[i], b[i]}]++
		ca[a[i]]++
		cb[b[i]]++
	}
	return joint, ca, cb, nil
}

func choose2(n int) float64 { return float64(n) * float64(n-1) / 2 }

// ARI computes the Adjusted Rand Index between two labelings in [−1, 1];
// 1 means identical partitions, 0 is chance level.
func ARI(a, b []int) (float64, error) {
	joint, ca, cb, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := len(a)
	if n < 2 {
		return 1, nil
	}
	var sumJoint, sumA, sumB float64
	for _, c := range joint {
		sumJoint += choose2(c)
	}
	for _, c := range ca {
		sumA += choose2(c)
	}
	for _, c := range cb {
		sumB += choose2(c)
	}
	total := choose2(n)
	expected := sumA * sumB / total
	maxIndex := (sumA + sumB) / 2
	if maxIndex == expected {
		// Both partitions are single-cluster or all-singletons; identical
		// partitions score 1, anything else is degenerate chance.
		if sumJoint == maxIndex {
			return 1, nil
		}
		return 0, nil
	}
	return (sumJoint - expected) / (maxIndex - expected), nil
}

// Canonicalize renames cluster ids (> 0) in first-appearance order
// starting from 1, leaving Noise (−1) and any non-positive labels intact.
// Two labelings describe the same clustering iff their canonical forms are
// element-wise equal.
func Canonicalize(labels []int) []int {
	next := 1
	rename := make(map[int]int)
	out := make([]int, len(labels))
	for i, l := range labels {
		if l <= 0 {
			out[i] = l
			continue
		}
		r, ok := rename[l]
		if !ok {
			r = next
			next++
			rename[l] = r
		}
		out[i] = r
	}
	return out
}

// ExactMatch reports whether two labelings are identical up to cluster
// renaming (noise must match exactly).
func ExactMatch(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ca := Canonicalize(a)
	cb := Canonicalize(b)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// NMI computes the normalized mutual information between two labelings in
// [0, 1] (arithmetic-mean normalization). 1 means the partitions determine
// each other; 0 means independence. Noise (−1) counts as its own class.
func NMI(a, b []int) (float64, error) {
	joint, ca, cb, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := float64(len(a))
	if n == 0 {
		return 1, nil
	}
	var mi float64
	for key, c := range joint {
		pxy := float64(c) / n
		px := float64(ca[key[0]]) / n
		py := float64(cb[key[1]]) / n
		mi += pxy * math.Log(pxy/(px*py))
	}
	entropy := func(counts map[int]int) float64 {
		var h float64
		for _, c := range counts {
			p := float64(c) / n
			h -= p * math.Log(p)
		}
		return h
	}
	ha, hb := entropy(ca), entropy(cb)
	if ha == 0 && hb == 0 {
		return 1, nil // both single-cluster: identical partitions
	}
	denom := (ha + hb) / 2
	if denom == 0 {
		return 0, nil
	}
	nmi := mi / denom
	// Clamp tiny negative float residue.
	if nmi < 0 && nmi > -1e-12 {
		nmi = 0
	}
	return nmi, nil
}

// NoiseCount counts points labelled −1.
func NoiseCount(labels []int) int {
	n := 0
	for _, l := range labels {
		if l == -1 {
			n++
		}
	}
	return n
}
