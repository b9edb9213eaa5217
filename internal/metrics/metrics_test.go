package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestARIPerfectAgreement(t *testing.T) {
	a := []int{1, 1, 2, 2, 3, 3}
	b := []int{5, 5, 9, 9, 7, 7} // same partition, different names
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("ARI = %v, want 1", got)
	}
}

func TestARITotalDisagreement(t *testing.T) {
	a := []int{1, 1, 1, 2, 2, 2}
	b := []int{1, 2, 3, 1, 2, 3}
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got > 0.01 {
		t.Errorf("ARI = %v, want ≈ ≤ 0", got)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Hand-computed contingency example.
	a := []int{1, 1, 1, 2, 2, 2}
	b := []int{1, 1, 2, 2, 2, 2}
	// joint: (1,1)=2 (1,2)=1 (2,2)=3 ; sumJoint = 1+0+3 = 4
	// sumA = C(3,2)+C(3,2) = 6; sumB = C(2,2)+C(4,2) = 1+6 = 7; total = 15
	// expected = 42/15 = 2.8; max = 6.5; ARI = (4-2.8)/(6.5-2.8) = 1.2/3.7
	want := 1.2 / 3.7
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ARI = %v, want %v", got, want)
	}
}

func TestARINoiseIsAClass(t *testing.T) {
	a := []int{-1, -1, 1, 1}
	b := []int{1, 1, 2, 2}
	got, _ := ARI(a, b)
	if got != 1 {
		t.Errorf("noise-vs-cluster renaming should still be perfect: %v", got)
	}
	c := []int{-1, 1, -1, 1}
	got2, _ := ARI(a, c)
	if got2 >= 1 {
		t.Errorf("different noise placement must lower ARI: %v", got2)
	}
}

func TestARILengthMismatch(t *testing.T) {
	if _, err := ARI([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestARIDegenerate(t *testing.T) {
	// Single cluster on both sides.
	got, err := ARI([]int{1, 1, 1}, []int{2, 2, 2})
	if err != nil || got != 1 {
		t.Errorf("all-same = %v, %v", got, err)
	}
	// Single point.
	got, err = ARI([]int{1}, []int{3})
	if err != nil || got != 1 {
		t.Errorf("single point = %v, %v", got, err)
	}
	// Single cluster vs all singletons (degenerate chance).
	got, err = ARI([]int{1, 1, 1}, []int{1, 2, 3})
	if err != nil || got != 0 {
		t.Errorf("degenerate = %v, %v", got, err)
	}
}

func TestCanonicalize(t *testing.T) {
	in := []int{7, 7, -1, 3, 3, 7, 9}
	want := []int{1, 1, -1, 2, 2, 1, 3}
	got := Canonicalize(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Canonicalize = %v, want %v", got, want)
		}
	}
	// Input untouched.
	if in[0] != 7 {
		t.Error("Canonicalize mutated its input")
	}
}

func TestExactMatch(t *testing.T) {
	a := []int{1, 1, 2, -1}
	b := []int{4, 4, 9, -1}
	if !ExactMatch(a, b) {
		t.Error("renamed labels should match")
	}
	c := []int{4, 4, -1, 9}
	if ExactMatch(a, c) {
		t.Error("different noise placement should not match")
	}
	if ExactMatch(a, a[:3]) {
		t.Error("length mismatch should not match")
	}
}

func TestNumClustersAndNoise(t *testing.T) {
	l := []int{5, 2, 2, -1, -1, -1, 9}
	if k := slices.Max(Canonicalize(l)); k != 3 {
		t.Errorf("clusters = %d, want 3", k)
	}
	if NoiseCount(l) != 3 {
		t.Errorf("NoiseCount = %d", NoiseCount(l))
	}
	if NoiseCount(nil) != 0 {
		t.Error("empty input")
	}
}

// Property: ARI is symmetric and invariant under label renaming.
func TestARIProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4) + 1
			b[i] = rng.Intn(4) + 1
		}
		ab, err1 := ARI(a, b)
		ba, err2 := ARI(b, a)
		if err1 != nil || err2 != nil || math.Abs(ab-ba) > 1e-12 {
			return false
		}
		// Rename a's labels with an offset; ARI must not change.
		a2 := make([]int, n)
		for i := range a {
			a2[i] = a[i] + 100
		}
		ab2, err := ARI(a2, b)
		if err != nil || math.Abs(ab-ab2) > 1e-12 {
			return false
		}
		// Self-ARI is 1.
		self, err := ARI(a, a)
		return err == nil && self == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ExactMatch(a, b) implies ARI(a, b) == 1.
func TestExactMatchImpliesPerfectARI(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		a := make([]int, n)
		for i := range a {
			if rng.Intn(5) == 0 {
				a[i] = -1
			} else {
				a[i] = rng.Intn(3) + 1
			}
		}
		// b = renamed a
		b := make([]int, n)
		for i := range a {
			if a[i] > 0 {
				b[i] = a[i]*3 + 1
			} else {
				b[i] = a[i]
			}
		}
		if !ExactMatch(a, b) {
			return false
		}
		ari, err := ARI(a, b)
		return err == nil && ari == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
