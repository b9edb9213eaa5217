package fixedpoint

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, scale, offset float64) *Codec {
	t.Helper()
	c, err := New(scale, offset)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadScale(t *testing.T) {
	for _, s := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := New(s, 0); err == nil {
			t.Errorf("New(%v, 0): want error", s)
		}
	}
	if _, err := New(1, math.NaN()); err == nil {
		t.Error("New(1, NaN): want error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := mustNew(t, 100, 10)
	for _, x := range []float64{-10, -9.99, 0, 0.005, 3.14159, 1000} {
		v, err := c.Encode(x)
		if err != nil {
			t.Fatalf("Encode(%v): %v", x, err)
		}
		got := c.Decode(v)
		if math.Abs(got-x) > 1/(2*c.Scale())+1e-12 {
			t.Errorf("round trip %v -> %d -> %v: error too large", x, v, got)
		}
	}
}

func TestEncodeRejectsNegativeMapping(t *testing.T) {
	c := mustNew(t, 10, 0)
	if _, err := c.Encode(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Encode(-1) = %v, want ErrOutOfRange", err)
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	c := mustNew(t, 10, 0)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.Encode(x); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Encode(%v) = %v, want ErrOutOfRange", x, err)
		}
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	c := mustNew(t, 1e6, 0)
	if _, err := c.Encode(1e12); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("want ErrOutOfRange, got %v", err)
	}
}

func TestEncodePointPropagatesIndex(t *testing.T) {
	c := mustNew(t, 10, 0)
	_, err := c.EncodePoint([]float64{1, -5, 2})
	if err == nil {
		t.Fatal("want error for negative coordinate")
	}
}

func TestEpsSquaredExactOnGrid(t *testing.T) {
	// With scale 1 and integer eps, EpsSquared must be exactly eps².
	c := mustNew(t, 1, 0)
	for eps := 0; eps <= 50; eps++ {
		got, err := c.EpsSquared(float64(eps))
		if err != nil {
			t.Fatalf("EpsSquared(%d): %v", eps, err)
		}
		if got != int64(eps*eps) {
			t.Errorf("EpsSquared(%d) = %d, want %d", eps, got, eps*eps)
		}
	}
}

func TestEpsSquaredScaled(t *testing.T) {
	c := mustNew(t, 10, 0)
	got, err := c.EpsSquared(1.5) // (1.5·10)² = 225
	if err != nil {
		t.Fatal(err)
	}
	if got != 225 {
		t.Errorf("got %d, want 225", got)
	}
}

func TestEpsSquaredRejectsBad(t *testing.T) {
	c := mustNew(t, 10, 0)
	for _, e := range []float64{-1, math.Inf(1), math.NaN()} {
		if _, err := c.EpsSquared(e); err == nil {
			t.Errorf("EpsSquared(%v): want error", e)
		}
	}
}

func TestDistSq(t *testing.T) {
	a := []int64{0, 0}
	b := []int64{3, 4}
	if got := DistSq(a, b); got != 25 {
		t.Errorf("DistSq = %d, want 25", got)
	}
	if got := DistSq(b, b); got != 0 {
		t.Errorf("DistSq(b,b) = %d, want 0", got)
	}
}

func TestDistSqDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on dimension mismatch")
		}
	}()
	DistSq([]int64{1}, []int64{1, 2})
}

func TestMaxDistSqBound(t *testing.T) {
	if got := MaxDistSqBound(63, 2); got != 2*63*63 {
		t.Errorf("got %d, want %d", got, 2*63*63)
	}
	if got := MaxDistSqBound(0, 5); got != 0 {
		t.Errorf("got %d, want 0", got)
	}
}

// Property: distance decisions on the encoded grid are symmetric and obey
// the triangle-ish bound DistSq(a,c) ≤ 2·(DistSq(a,b)+DistSq(b,c)).
func TestDistSqProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := []int64{int64(ax), int64(ay)}
		b := []int64{int64(bx), int64(by)}
		cc := []int64{int64(cx), int64(cy)}
		if DistSq(a, b) != DistSq(b, a) {
			return false
		}
		return DistSq(a, cc) <= 2*(DistSq(a, b)+DistSq(b, cc))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encoding is monotone — larger raw coordinates never produce
// smaller encoded values.
func TestEncodeMonotone(t *testing.T) {
	c := mustNew(t, 37.5, 100)
	f := func(x, y float64) bool {
		x = math.Mod(math.Abs(x), 1000)
		y = math.Mod(math.Abs(y), 1000)
		if x > y {
			x, y = y, x
		}
		vx, err1 := c.Encode(x)
		vy, err2 := c.Encode(y)
		if err1 != nil || err2 != nil {
			return false
		}
		return vx <= vy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
