package dataset

import (
	"math"
	"testing"
)

func TestBlobsShapeAndDeterminism(t *testing.T) {
	d1 := Blobs(90, 3, 0.5, 42)
	d2 := Blobs(90, 3, 0.5, 42)
	if len(d1.Points) != 90 || len(d1.Labels) != 90 {
		t.Fatalf("sizes: %d points, %d labels", len(d1.Points), len(d1.Labels))
	}
	if d1.Dim() != 2 {
		t.Errorf("Dim = %d, want 2", d1.Dim())
	}
	for i := range d1.Points {
		if d1.Points[i][0] != d2.Points[i][0] || d1.Points[i][1] != d2.Points[i][1] {
			t.Fatal("same seed produced different data")
		}
	}
	d3 := Blobs(90, 3, 0.5, 43)
	same := true
	for i := range d1.Points {
		if d1.Points[i][0] != d3.Points[i][0] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
	labels := map[int]bool{}
	for _, l := range d1.Labels {
		labels[l] = true
	}
	if len(labels) != 3 {
		t.Errorf("want 3 distinct labels, got %d", len(labels))
	}
}

func TestBlobsDim(t *testing.T) {
	d := BlobsDim(60, 4, 5, 0.3, 1)
	if d.Dim() != 5 {
		t.Errorf("Dim = %d, want 5", d.Dim())
	}
	if len(d.Points) != 60 {
		t.Errorf("n = %d", len(d.Points))
	}
}

func TestMoonsLabelsBalanced(t *testing.T) {
	d := Moons(100, 0.01, 7)
	var c1, c2 int
	for _, l := range d.Labels {
		switch l {
		case 1:
			c1++
		case 2:
			c2++
		default:
			t.Fatalf("unexpected label %d", l)
		}
	}
	if c1 != 50 || c2 != 50 {
		t.Errorf("label balance: %d/%d", c1, c2)
	}
}

func TestRingsRadii(t *testing.T) {
	d := Rings(200, 0, 3)
	for i, p := range d.Points {
		r := math.Hypot(p[0], p[1])
		want := 1.0
		if d.Labels[i] == 2 {
			want = 3.0
		}
		if math.Abs(r-want) > 1e-9 {
			t.Fatalf("point %d at radius %v, want %v", i, r, want)
		}
	}
}

func TestBridgedSingleTruthCluster(t *testing.T) {
	d := Bridged(100, 5)
	if len(d.Points) != 100 {
		t.Fatalf("n = %d", len(d.Points))
	}
	for _, l := range d.Labels {
		if l != 1 {
			t.Fatalf("bridged truth label %d, want 1", l)
		}
	}
}

func TestUniformNoiseBounds(t *testing.T) {
	d := UniformNoiseDim(100, 2, -2, 5, 9)
	for _, p := range d.Points {
		for _, x := range p {
			if x < -2 || x > 5 {
				t.Fatalf("noise point %v out of range", p)
			}
		}
	}
	for _, l := range d.Labels {
		if l != -1 {
			t.Fatal("noise must be labelled -1")
		}
	}
}

func TestWithNoiseAppends(t *testing.T) {
	base := Blobs(50, 2, 0.3, 1)
	d := WithNoise(base, 10, 2)
	if len(d.Points) != 60 || len(d.Labels) != 60 {
		t.Fatalf("sizes: %d/%d", len(d.Points), len(d.Labels))
	}
	for i := 50; i < 60; i++ {
		if d.Labels[i] != -1 {
			t.Errorf("appended point %d labelled %d", i, d.Labels[i])
		}
	}
}

func TestQuantizeOnGrid(t *testing.T) {
	d := Moons(150, 0.05, 11)
	q, scaleEps := Quantize(d, 64)
	for _, p := range q.Points {
		for _, x := range p {
			if x != math.Round(x) {
				t.Fatalf("non-integer quantized coordinate %v", x)
			}
			if x < 0 || x > 63 {
				t.Fatalf("coordinate %v outside [0,63]", x)
			}
		}
	}
	// Every raw eps maps linearly.
	if scaleEps(2) != 2*scaleEps(1) {
		t.Error("eps scaling not linear")
	}
	if q.Labels == nil {
		t.Error("labels dropped by Quantize")
	}
}

func TestQuantizeDegenerate(t *testing.T) {
	d := Dataset{Points: [][]float64{{5, 5}, {5, 5}}}
	q, _ := Quantize(d, 16)
	for _, p := range q.Points {
		for _, x := range p {
			if x != 0 {
				t.Errorf("degenerate quantize produced %v", x)
			}
		}
	}
}

func TestConcatOffsetsLabels(t *testing.T) {
	a := Dataset{Points: [][]float64{{0, 0}, {1, 1}}, Labels: []int{1, 2}}
	b := Dataset{Points: [][]float64{{2, 2}, {3, 3}}, Labels: []int{1, -1}}
	c := Concat("ab", a, b)
	if len(c.Points) != 4 {
		t.Fatalf("n = %d", len(c.Points))
	}
	want := []int{1, 2, 3, -1}
	for i, l := range c.Labels {
		if l != want[i] {
			t.Errorf("label[%d] = %d, want %d", i, l, want[i])
		}
	}
}

func TestConcatUnlabelled(t *testing.T) {
	a := Dataset{Points: [][]float64{{0, 0}}}
	b := Dataset{Points: [][]float64{{1, 1}}, Labels: []int{1}}
	c := Concat("ab", a, b)
	if c.Labels != nil {
		t.Error("labels must be dropped when any input is unlabelled")
	}
}

func TestEmptyDatasetDim(t *testing.T) {
	if (Dataset{}).Dim() != 0 {
		t.Error("empty Dim != 0")
	}
}
