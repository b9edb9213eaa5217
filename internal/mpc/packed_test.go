package mpc

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// testPacker sizes slots for the test grid: products ≤ 63² with
// zero-sum masks over a 2^20·63² bound and up to 3 mask terms.
func testPacker(t testing.TB) (*encoding.Packer, *big.Int) {
	t.Helper()
	k := testKey(t)
	maskBound := new(big.Int).Lsh(big.NewInt(63*63), 20)
	pk, err := encoding.NewProductPacker(k.PlaintextBound(), 63*63, maskBound, 3)
	if err != nil {
		t.Fatal(err)
	}
	return pk, maskBound
}

// TestGridMultiplyMatchesUnpacked runs the same grid — same values,
// same masks — through the packed and unpacked wire forms and asserts
// element-identical results, including negative masked sums (the
// unpacked path decodes them via DecryptSignedBatch, the packed path
// via biased slots; both must agree on every signed value).
func TestGridMultiplyMatchesUnpacked(t *testing.T) {
	k := testKey(t)
	pk, maskBound := testPacker(t)
	rows := pk.Slots()*2 + 1 // two full groups plus a short tail
	cols := 2
	xs := make([]int64, rows*cols)
	ys := []int64{63, 17}
	for i := range xs {
		xs[i] = int64(i*31) % 64
	}
	// Fixed masks reused across both forms, with aggressively negative
	// entries so signed decoding is genuinely exercised.
	vs := make([]*big.Int, rows*cols)
	for i := range vs {
		v, err := RandomMask(rand.Reader, maskBound)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			v.Neg(v)
		}
		vs[i] = v
	}
	var plain, packed []*big.Int
	if err := transport.Run2(
		func(c transport.Conn) error {
			us, err := ReceiverBatchMultiply(c, k, xs, rand.Reader, nil)
			plain = us
			return err
		},
		func(c transport.Conn) error {
			flatYs := make([]int64, rows*cols)
			for i := 0; i < rows; i++ {
				copy(flatYs[i*cols:], ys)
			}
			return SenderBatchMultiply(c, &k.PublicKey, flatYs, vs, rand.Reader, nil)
		},
	); err != nil {
		t.Fatal(err)
	}
	if err := transport.Run2(
		func(c transport.Conn) error {
			us, err := ReceiverGridMultiply(c, k, xs, rows, cols, pk, rand.Reader, nil)
			packed = us
			return err
		},
		func(c transport.Conn) error {
			return SenderGridMultiply(c, &k.PublicKey, ys, vs, rows, cols, pk, rand.Reader, nil)
		},
	); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Cmp(packed[i]) != 0 {
			t.Fatalf("grid[%d]: packed %v ≠ unpacked %v", i, packed[i], plain[i])
		}
	}
}

// TestGridMultiplyCiphertextCount verifies the wire saving: a packed
// grid round exchanges 2·⌈rows/S⌉·cols ciphertext payloads instead of
// 2·rows·cols, measured as bytes over a metered pipe.
func TestGridMultiplyCiphertextCount(t *testing.T) {
	k := testKey(t)
	pk, maskBound := testPacker(t)
	if pk.Slots() < 2 {
		t.Skip("key too small to pack multiple slots")
	}
	rows, cols := pk.Slots()*3, 2
	xs := make([]int64, rows*cols)
	ys := []int64{5, 9}
	vs := make([]*big.Int, rows*cols)
	flatYs := make([]int64, rows*cols)
	for i := range vs {
		v, err := RandomMask(rand.Reader, maskBound)
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = v
	}
	for i := 0; i < rows; i++ {
		copy(flatYs[i*cols:], ys)
	}
	measure := func(packed bool) int64 {
		ca, cb := transport.Pipe()
		ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
		err := transport.RunPair(ma, mb,
			func(transport.Conn) error {
				var err error
				if packed {
					_, err = ReceiverGridMultiply(ma, k, xs, rows, cols, pk, rand.Reader, nil)
				} else {
					_, err = ReceiverBatchMultiply(ma, k, xs, rand.Reader, nil)
				}
				return err
			},
			func(transport.Conn) error {
				if packed {
					return SenderGridMultiply(mb, &k.PublicKey, ys, vs, rows, cols, pk, rand.Reader, nil)
				}
				return SenderBatchMultiply(mb, &k.PublicKey, flatYs, vs, rand.Reader, nil)
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		return ma.Stats().BytesSent + mb.Stats().BytesSent
	}
	unpacked, packed := measure(false), measure(true)
	if packed*2 > unpacked {
		t.Fatalf("packed grid round costs %d bytes, unpacked %d — want ≥2× saving at S=%d", packed, unpacked, pk.Slots())
	}
}

func TestScatterMultiplyMatchesUnpacked(t *testing.T) {
	k := testKey(t)
	pk, maskBound := testPacker(t)
	n := pk.Slots() + 2
	xs := make([]int64, n)
	ys := make([]int64, n)
	vs := make([]*big.Int, n)
	for i := range xs {
		xs[i] = int64(i*13) % 64
		ys[i] = int64(i*7) % 64 // distinct per-element scalars
		v, err := RandomMask(rand.Reader, maskBound)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			v.Neg(v)
		}
		vs[i] = v
	}
	ys[1] = 0 // zero scalar: slot must still carry its mask
	var plain, packed []*big.Int
	if err := transport.Run2(
		func(c transport.Conn) error {
			us, err := ReceiverBatchMultiply(c, k, xs, rand.Reader, nil)
			plain = us
			return err
		},
		func(c transport.Conn) error {
			return SenderBatchMultiply(c, &k.PublicKey, ys, vs, rand.Reader, nil)
		},
	); err != nil {
		t.Fatal(err)
	}
	if err := transport.Run2(
		func(c transport.Conn) error {
			us, err := ReceiverScatterMultiply(c, k, xs, pk, rand.Reader, nil)
			packed = us
			return err
		},
		func(c transport.Conn) error {
			return SenderScatterMultiply(c, &k.PublicKey, ys, vs, pk, rand.Reader, nil)
		},
	); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Cmp(packed[i]) != 0 {
			t.Fatalf("scatter[%d]: packed %v ≠ unpacked %v", i, packed[i], plain[i])
		}
	}
}

func TestDotManyPackedMatchesUnpacked(t *testing.T) {
	k := testKey(t)
	// The §5 dot products land in [0, bound+shareV): non-negative slots.
	pk, err := encoding.NewSumPacker(k.PlaintextBound(), 2*63*63+1024)
	if err != nil {
		t.Fatal(err)
	}
	a := []int64{100, -2 * 7, -2 * 9, 1}
	count := pk.Slots() + 3
	bs := make([][]int64, count)
	vs := make([]*big.Int, count)
	for i := range bs {
		bs[i] = []int64{1, int64(i % 14), int64((i * 3) % 14), int64(i%14)*int64(i%14) + int64((i*3)%14)*int64((i*3)%14)}
		vs[i] = big.NewInt(int64(i * 37 % 1024))
	}
	var plain, packed []*big.Int
	if err := transport.Run2(
		func(c transport.Conn) error {
			us, err := ReceiverDotMany(c, k, a, count, rand.Reader, nil)
			plain = us
			return err
		},
		func(c transport.Conn) error {
			return SenderDotMany(c, &k.PublicKey, bs, vs, rand.Reader, nil)
		},
	); err != nil {
		t.Fatal(err)
	}
	if err := transport.Run2(
		func(c transport.Conn) error {
			us, err := ReceiverDotManyPacked(c, k, a, count, pk, rand.Reader, nil)
			packed = us
			return err
		},
		func(c transport.Conn) error {
			return SenderDotManyPacked(c, &k.PublicKey, bs, vs, pk, rand.Reader, nil)
		},
	); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Cmp(packed[i]) != 0 {
			t.Fatalf("dot[%d]: packed %v ≠ unpacked %v", i, packed[i], plain[i])
		}
	}
}

// TestDotManyPackedRetainWireCompatible: the retaining sender must be
// indistinguishable to the receiver from SenderDotManyPacked — same
// reply groups, same decoded dot products — while the retained D_i
// decrypt to exactly the masked dot products the receiver sees.
func TestDotManyPackedRetainWireCompatible(t *testing.T) {
	k := testKey(t)
	pk, err := encoding.NewSumPacker(k.PlaintextBound(), 2*63*63+1024)
	if err != nil {
		t.Fatal(err)
	}
	a := []int64{100, -2 * 7, -2 * 9, 1}
	count := pk.Slots() + 3
	bs := make([][]int64, count)
	vs := make([]*big.Int, count)
	for i := range bs {
		bs[i] = []int64{1, int64(i % 14), int64((i * 3) % 14), int64(i%14)*int64(i%14) + int64((i*3)%14)*int64((i*3)%14)}
		vs[i] = big.NewInt(int64(i * 37 % 1024))
	}
	var plain, packed []*big.Int
	var ds []*big.Int
	if err := transport.Run2(
		func(c transport.Conn) error {
			us, err := ReceiverDotMany(c, k, a, count, rand.Reader, nil)
			plain = us
			return err
		},
		func(c transport.Conn) error {
			return SenderDotMany(c, &k.PublicKey, bs, vs, rand.Reader, nil)
		},
	); err != nil {
		t.Fatal(err)
	}
	if err := transport.Run2(
		func(c transport.Conn) error {
			us, err := ReceiverDotManyPacked(c, k, a, count, pk, rand.Reader, nil)
			packed = us
			return err
		},
		func(c transport.Conn) error {
			var err error
			ds, err = SenderDotManyPackedRetain(c, &k.PublicKey, bs, vs, pk, rand.Reader, nil)
			return err
		},
	); err != nil {
		t.Fatal(err)
	}
	if len(ds) != count {
		t.Fatalf("retained %d ciphertexts, want %d", len(ds), count)
	}
	for i := range plain {
		if plain[i].Cmp(packed[i]) != 0 {
			t.Fatalf("dot[%d]: retain-packed %v ≠ unpacked %v", i, packed[i], plain[i])
		}
		di, err := k.DecryptSigned(ds[i])
		if err != nil {
			t.Fatal(err)
		}
		if di.Cmp(plain[i]) != 0 {
			t.Fatalf("retained D_%d decrypts to %v, want %v", i, di, plain[i])
		}
	}
}

// TestDotSendersRangeCheckUnderZeroColumn: a hostile receiver uplinks an
// out-of-range ciphertext in a coordinate where every sender vector holds
// zero. The product would ignore it, but skipping its range check would
// tell the receiver — error or no error — that the sender's column is all
// zero, so every dot-product sender must reject it whatever the scalars.
func TestDotSendersRangeCheckUnderZeroColumn(t *testing.T) {
	k := testKey(t)
	pub := &k.PublicKey
	pk, err := encoding.NewSumPacker(k.PlaintextBound(), 2*63*63+1024)
	if err != nil {
		t.Fatal(err)
	}
	const zeroCol = 2
	bs := [][]int64{{1, 3, 0, 9}, {1, 5, 0, 25}, {1, 0, 0, 0}}
	vs := []*big.Int{big.NewInt(11), big.NewInt(0), big.NewInt(1023)}
	cts, err := k.EncryptInt64Batch(nil, rand.Reader, []int64{100, -14, -18, 1})
	if err != nil {
		t.Fatal(err)
	}
	cts[zeroCol] = new(big.Int).Set(pub.NSquared) // one past the top of Z_{n²}
	for name, sender := range map[string]func(transport.Conn) error{
		"SenderDotMany": func(c transport.Conn) error {
			return SenderDotMany(c, pub, bs, vs, rand.Reader, nil)
		},
		"SenderDotManyPacked": func(c transport.Conn) error {
			return SenderDotManyPacked(c, pub, bs, vs, pk, rand.Reader, nil)
		},
		"SenderDotManyPackedRetain": func(c transport.Conn) error {
			_, err := SenderDotManyPackedRetain(c, pub, bs, vs, pk, rand.Reader, nil)
			return err
		},
	} {
		// The pipe buffers, so the uplink can be queued before the sender runs.
		recv, send := transport.Pipe()
		if err := transport.SendMsg(recv, transport.NewBuilder().PutUint(uint64(len(bs))).PutBigs(cts)); err != nil {
			t.Fatal(err)
		}
		if err := sender(send); !errors.Is(err, paillier.ErrCiphertextRange) {
			t.Errorf("%s: error = %v, want paillier.ErrCiphertextRange", name, err)
		}
	}
}
