package mpc

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/paillier"
	"repro/internal/transport"
)

var (
	keyOnce sync.Once
	key     *paillier.PrivateKey
)

func testKey(t testing.TB) *paillier.PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		k, err := paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		key = k
	})
	return key
}

func TestMultiplyCorrectness(t *testing.T) {
	k := testKey(t)
	cases := []struct {
		x, y int64
		v    int64
	}{
		{3, 4, 10},
		{3, 4, -10},
		{-3, 4, 7},
		{3, -4, 7},
		{-3, -4, 0},
		{0, 99, 5},
		{99, 0, 5},
		{1 << 30, 1 << 20, 1 << 40},
	}
	for _, tc := range cases {
		var u *big.Int
		err := transport.Run2(
			func(c transport.Conn) error {
				var err error
				u, err = ReceiverMultiply(c, k, tc.x, rand.Reader)
				return err
			},
			func(c transport.Conn) error {
				return SenderMultiply(c, &k.PublicKey, tc.y, big.NewInt(tc.v), rand.Reader)
			},
		)
		if err != nil {
			t.Fatalf("Multiply(%d,%d,%d): %v", tc.x, tc.y, tc.v, err)
		}
		want := tc.x*tc.y + tc.v
		if u.Int64() != want {
			t.Errorf("u = %v, want %d", u, want)
		}
	}
}

// Property: u − v = x·y for random int32 inputs — the receiver's output
// minus the sender's mask is always the true product (Algorithm 2's
// correctness proof).
func TestMultiplyProperty(t *testing.T) {
	k := testKey(t)
	f := func(x, y, v int32) bool {
		var u *big.Int
		err := transport.Run2(
			func(c transport.Conn) error {
				var err error
				u, err = ReceiverMultiply(c, k, int64(x), rand.Reader)
				return err
			},
			func(c transport.Conn) error {
				return SenderMultiply(c, &k.PublicKey, int64(y), big.NewInt(int64(v)), rand.Reader)
			},
		)
		if err != nil {
			return false
		}
		diff := new(big.Int).Sub(u, big.NewInt(int64(v)))
		return diff.Int64() == int64(x)*int64(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestBatchMultiply(t *testing.T) {
	k := testKey(t)
	xs := []int64{1, -2, 3, 0, 5}
	ys := []int64{10, 20, -30, 40, 0}
	vs := []*big.Int{big.NewInt(7), big.NewInt(-7), big.NewInt(0), big.NewInt(1), big.NewInt(2)}
	var us []*big.Int
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			us, err = ReceiverBatchMultiply(c, k, xs, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderBatchMultiply(c, &k.PublicKey, ys, vs, rand.Reader, nil)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		want := xs[i]*ys[i] + vs[i].Int64()
		if us[i].Int64() != want {
			t.Errorf("u[%d] = %v, want %d", i, us[i], want)
		}
	}
}

func TestBatchMultiplyLengthMismatch(t *testing.T) {
	k := testKey(t)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ReceiverBatchMultiply(c, k, []int64{1, 2, 3}, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderBatchMultiply(c, &k.PublicKey, []int64{1, 2},
				[]*big.Int{big.NewInt(0), big.NewInt(0)}, rand.Reader, nil)
		},
	)
	if !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestSenderMaskCountMismatch(t *testing.T) {
	k := testKey(t)
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	err := SenderBatchMultiply(conn, &k.PublicKey, []int64{1, 2}, []*big.Int{big.NewInt(0)}, rand.Reader, nil)
	if !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestDotProduct(t *testing.T) {
	k := testKey(t)
	a := []int64{2, -3, 4}
	b := []int64{5, 6, -7}
	v := big.NewInt(1000)
	var us []*big.Int
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			us, err = ReceiverDotMany(c, k, a, 1, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderDotMany(c, &k.PublicKey, [][]int64{b}, []*big.Int{v}, rand.Reader, nil)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2*5+(-3)*6+4*(-7)) + 1000
	if len(us) != 1 || us[0].Int64() != want {
		t.Errorf("u = %v, want [%d]", us, want)
	}
}

// The §5 distance-sharing identity: with a = (ΣA_k², −2A_1, …, −2A_m, 1)
// and b_i = (1, B_i1, …, B_im, ΣB_ik²), the masked dot products satisfy
// u_i − v_i = Dist²(A, B_i).
func TestDotManySharesDistances(t *testing.T) {
	k := testKey(t)
	A := []int64{3, 7}
	Bs := [][]int64{{0, 0}, {3, 7}, {10, 1}, {4, 8}}

	a := []int64{A[0]*A[0] + A[1]*A[1], -2 * A[0], -2 * A[1], 1}
	bs := make([][]int64, len(Bs))
	vs := make([]*big.Int, len(Bs))
	for i, B := range Bs {
		bs[i] = []int64{1, B[0], B[1], B[0]*B[0] + B[1]*B[1]}
		vs[i] = big.NewInt(int64(1000 * (i + 1)))
	}

	var us []*big.Int
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			us, err = ReceiverDotMany(c, k, a, len(Bs), rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderDotMany(c, &k.PublicKey, bs, vs, rand.Reader, nil)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, B := range Bs {
		dx, dy := A[0]-B[0], A[1]-B[1]
		wantDist := dx*dx + dy*dy
		got := new(big.Int).Sub(us[i], vs[i])
		if got.Int64() != wantDist {
			t.Errorf("point %d: u−v = %v, want Dist² = %d", i, got, wantDist)
		}
	}
}

func TestDotManyDimensionMismatch(t *testing.T) {
	k := testKey(t)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ReceiverDotMany(c, k, []int64{1, 2, 3}, 1, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderDotMany(c, &k.PublicKey, [][]int64{{1, 2}}, []*big.Int{big.NewInt(0)}, rand.Reader, nil)
		},
	)
	if !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestDotManyCountMismatch(t *testing.T) {
	k := testKey(t)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ReceiverDotMany(c, k, []int64{1}, 3, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderDotMany(c, &k.PublicKey, [][]int64{{1}}, []*big.Int{big.NewInt(0)}, rand.Reader, nil)
		},
	)
	if !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestReceiverDotManyRejectsZeroCount(t *testing.T) {
	k := testKey(t)
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	if _, err := ReceiverDotMany(conn, k, []int64{1}, 0, rand.Reader, nil); err == nil {
		t.Error("count 0 accepted")
	}
}

func TestZeroSumMasks(t *testing.T) {
	bound := big.NewInt(1 << 30)
	for _, m := range []int{1, 2, 5, 16} {
		masks, err := ZeroSumMasks(rand.Reader, m, bound)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if len(masks) != m {
			t.Fatalf("m=%d: got %d masks", m, len(masks))
		}
		sum := new(big.Int)
		for _, r := range masks {
			sum.Add(sum, r)
		}
		if sum.Sign() != 0 {
			t.Errorf("m=%d: masks sum to %v, want 0", m, sum)
		}
	}
}

func TestZeroSumMasksValidation(t *testing.T) {
	if _, err := ZeroSumMasks(rand.Reader, 0, big.NewInt(10)); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := ZeroSumMasks(rand.Reader, 3, big.NewInt(0)); err == nil {
		t.Error("bound=0 accepted")
	}
}

func TestZeroSumMasksSingle(t *testing.T) {
	masks, err := ZeroSumMasks(rand.Reader, 1, big.NewInt(100))
	if err != nil {
		t.Fatal(err)
	}
	if masks[0].Sign() != 0 {
		t.Errorf("single mask must be 0, got %v", masks[0])
	}
}

func TestRandomMask(t *testing.T) {
	bound := big.NewInt(1000)
	for i := 0; i < 50; i++ {
		v, err := RandomMask(rand.Reader, bound)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() < 0 || v.Cmp(bound) >= 0 {
			t.Fatalf("mask %v outside [0,1000)", v)
		}
	}
	if _, err := RandomMask(rand.Reader, big.NewInt(0)); err == nil {
		t.Error("zero bound accepted")
	}
}

// HDP usage shape: masked per-coordinate products with zero-sum masks must
// sum to exactly the dot product (the masks cancel).
func TestZeroSumMasksCancelInBatch(t *testing.T) {
	k := testKey(t)
	dx := []int64{3, 1, 4, 1, 5} // Alice's coordinates (sender)
	dy := []int64{9, 2, 6, 5, 3} // Bob's coordinates (receiver)
	masks, err := ZeroSumMasks(rand.Reader, len(dx), big.NewInt(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	var us []*big.Int
	err = transport.Run2(
		func(c transport.Conn) error {
			var err error
			us, err = ReceiverBatchMultiply(c, k, dy, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderBatchMultiply(c, &k.PublicKey, dx, masks, rand.Reader, nil)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	sum := new(big.Int)
	for _, u := range us {
		sum.Add(sum, u)
	}
	var wantDot int64
	for i := range dx {
		wantDot += dx[i] * dy[i]
	}
	if sum.Int64() != wantDot {
		t.Errorf("Σu = %v, want dot product %d", sum, wantDot)
	}
}

// Communication shape: a batch of m multiplications is exactly one message
// each way carrying m ciphertexts — O(c1·m) per the paper.
func TestBatchCommunicationShape(t *testing.T) {
	k := testKey(t)
	const m = 8
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	xs := make([]int64, m)
	ys := make([]int64, m)
	vs := make([]*big.Int, m)
	rng := mrand.New(mrand.NewSource(1))
	for i := range xs {
		xs[i] = int64(rng.Intn(100))
		ys[i] = int64(rng.Intn(100))
		vs[i] = big.NewInt(int64(rng.Intn(100)))
	}
	err := transport.RunPair(ma, mb,
		func(c transport.Conn) error {
			_, err := ReceiverBatchMultiply(c, k, xs, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			return SenderBatchMultiply(c, &k.PublicKey, ys, vs, rand.Reader, nil)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := ma.Stats().MessagesSent; got != 1 {
		t.Errorf("receiver sent %d messages, want 1", got)
	}
	if got := mb.Stats().MessagesSent; got != 1 {
		t.Errorf("sender sent %d messages, want 1", got)
	}
	// Each ciphertext is ≤ 2·256 bits = 64 bytes; m of them plus framing.
	if got := ma.Stats().BytesSent; got > int64(m*(64+4)+16) {
		t.Errorf("receiver sent %d bytes, exceeds O(c1·m) budget", got)
	}
}
