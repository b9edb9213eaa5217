package kumar

import "testing"

var bob = [][]float64{{0.3, 0}, {5, 5.2}, {9, 9}}

func TestVictimNeighbourhoods(t *testing.T) {
	got := VictimNeighbourhoods([]float64{0, 0}, bob, 1.0)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("victim disks = %v, want [0]", got)
	}
	if got := VictimNeighbourhoods([]float64{-9, -9}, bob, 1.0); len(got) != 0 {
		t.Errorf("far victim disks = %v, want none", got)
	}
}

func TestValidation(t *testing.T) {
	if got := VictimNeighbourhoods([]float64{0, 0}, nil, 1); len(got) != 0 {
		t.Errorf("no Bob points: disks = %v, want none", got)
	}
	// A point of another dimension is skipped, not compared on a prefix.
	mixed := [][]float64{{0.3, 0, 0}, {0.3}, {0.3, 0}}
	if got := VictimNeighbourhoods([]float64{0, 0}, mixed, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("mixed dimensions: disks = %v, want [2]", got)
	}
}
