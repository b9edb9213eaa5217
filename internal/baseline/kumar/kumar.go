// Package kumar models what the adversary learns under the prior privacy-
// preserving DBSCAN protocol of Kumar and Rangan (ADMA 2007) — reference
// [14] of the reproduced paper — which the paper criticizes in its
// introduction and Figure 1.
//
// It does not re-implement their cryptographic machinery. In their
// protocol Bob learns, for each of his points, which of Alice's records lie
// in its Eps-neighbourhood, with identities that stay stable across
// queries. So for one victim record Bob can collect every neighbourhood
// that contains it (VictimNeighbourhoods) and intersect those disks: that
// intersection is the "small gray region" of Figure 1, which experiment E1
// measures against the union area left to an adversary of this paper's
// protocol, whose fresh per-query permutations prevent the linking.
package kumar

// VictimNeighbourhoods returns the indices of Bob's points whose
// Eps-neighbourhood contains the given Alice point — the disk set the
// linked adversary intersects in Figure 1. A Bob point of another
// dimension is in no neighbourhood.
func VictimNeighbourhoods(victim []float64, bob [][]float64, eps float64) []int {
	epsSq := eps * eps
	var out []int
	for i, b := range bob {
		if len(b) == len(victim) && distSq(victim, b) <= epsSq {
			out = append(out, i)
		}
	}
	return out
}

func distSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
