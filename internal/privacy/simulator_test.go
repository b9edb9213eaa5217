package privacy

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/transport"
)

func TestHistogramBasics(t *testing.T) {
	h, err := Histogram([]int64{0, 1, 2, 3}, 4, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h {
		if v != 0.25 {
			t.Errorf("bucket %d = %v, want 0.25", i, v)
		}
	}
	// Out-of-range samples clamp.
	h, err = Histogram([]int64{-5, 100}, 2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 0.5 || h[1] != 0.5 {
		t.Errorf("clamped histogram = %v", h)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := Histogram(nil, 4, 0, 4); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := Histogram([]int64{1}, 0, 0, 4); err == nil {
		t.Error("0 buckets accepted")
	}
	if _, err := Histogram([]int64{1}, 4, 4, 4); err == nil {
		t.Error("empty range accepted")
	}
}

func TestTotalVariation(t *testing.T) {
	a := []float64{0.5, 0.5}
	b := []float64{1, 0}
	tv, err := TotalVariation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tv != 0.5 {
		t.Errorf("TV = %v, want 0.5", tv)
	}
	if tv, _ := TotalVariation(a, a); tv != 0 {
		t.Errorf("self TV = %v", tv)
	}
	if _, err := TotalVariation(a, []float64{1}); err == nil {
		t.Error("size mismatch accepted")
	}
}

// Empirical Lemma 7 check (statistical model): the Multiplication
// Protocol receiver's output u = x·y + v with v uniform over a range far
// wider than the product should be statistically independent of y. We
// draw u for two very different sender inputs and check TV stays at the
// sampling-noise floor; a narrow mask range must be detectably unsafe.
func TestMultiplicationMaskingStatistics(t *testing.T) {
	const samples = 50000
	const buckets = 32
	rng := mrand.New(mrand.NewSource(5))

	draw := func(y, maskRange int64) []int64 {
		out := make([]int64, samples)
		for i := range out {
			x := int64(rng.Intn(100))
			v := rng.Int63n(maskRange)
			out[i] = x*y + v
		}
		return out
	}

	// Wide mask: products ≤ 9900, mask up to 2^24.
	wide1 := draw(3, 1<<24)
	wide2 := draw(99, 1<<24)
	tv, err := TVBetween(wide1, wide2, buckets)
	if err != nil {
		t.Fatal(err)
	}
	floor := SamplingNoiseFloor(samples, buckets)
	if tv > 3*floor {
		t.Errorf("wide-mask TV = %v exceeds 3×noise floor %v: masking broken", tv, floor)
	}

	// Narrow mask: mask range comparable to the product — detectable.
	narrow1 := draw(3, 1<<10)
	narrow2 := draw(99, 1<<10)
	tv, err = TVBetween(narrow1, narrow2, buckets)
	if err != nil {
		t.Fatal(err)
	}
	if tv < 0.3 {
		t.Errorf("narrow-mask TV = %v; expected clearly detectable difference", tv)
	}
}

// End-to-end Lemma 7 check with real crypto: the receiver's decrypted u
// values for two different sender inputs are indistinguishable when the
// sender masks over a wide range.
func TestMultiplicationProtocolViewIndistinguishable(t *testing.T) {
	key, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 300
	const x = int64(42)
	maskRange := big.NewInt(1 << 30)

	collect := func(y int64) []int64 {
		out := make([]int64, runs)
		for i := 0; i < runs; i++ {
			v, err := mpc.RandomMask(rand.Reader, maskRange)
			if err != nil {
				t.Fatal(err)
			}
			var u *big.Int
			err = transport.Run2(
				func(c transport.Conn) error {
					var err error
					u, err = mpc.ReceiverMultiply(c, key, x, rand.Reader)
					return err
				},
				func(c transport.Conn) error {
					return mpc.SenderMultiply(c, &key.PublicKey, y, v, rand.Reader)
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = u.Int64()
		}
		return out
	}

	viewY1 := collect(5)
	viewY2 := collect(5000)
	tv, err := TVBetween(viewY1, viewY2, 8)
	if err != nil {
		t.Fatal(err)
	}
	floor := SamplingNoiseFloor(runs, 8)
	if tv > 4*floor {
		t.Errorf("real-protocol view TV = %v > 4×noise floor %v", tv, floor)
	}
}

// The masked comparison engine's documented leak: the decryptor's view
// t = r(b−a)+r′ depends detectably on the magnitude |b−a|. This is the
// quantitative content of the caveat in internal/compare's package doc —
// the extension engine trades this bounded leak for O(1) cost, and the
// test pins the trade-off down so it can't silently regress into being
// called leak-free.
func TestMaskedEngineMagnitudeLeakIsDetectable(t *testing.T) {
	const samples = 20000
	rng := mrand.New(mrand.NewSource(9))
	draw := func(diff int64) []int64 {
		out := make([]int64, samples)
		for i := range out {
			r := rng.Int63n(1<<20) + 1
			rp := rng.Int63n(r)
			out[i] = int64(bitlen(r*diff + rp))
		}
		return out
	}
	small := draw(1)
	large := draw(1 << 20)
	tv, err := TVBetween(small, large, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tv < 0.5 {
		t.Errorf("masked-engine magnitude leak TV = %v; expected strongly detectable", tv)
	}
}

func bitlen(v int64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

func TestSamplingNoiseFloorSanity(t *testing.T) {
	if f := SamplingNoiseFloor(0, 8); f != 1 {
		t.Errorf("degenerate floor = %v", f)
	}
	// More samples, lower floor.
	if SamplingNoiseFloor(100000, 8) >= SamplingNoiseFloor(100, 8) {
		t.Error("noise floor not decreasing in samples")
	}
}
