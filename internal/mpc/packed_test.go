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

// dotRowsFixture is three §5 query vectors and their sender points: a first
// row of S + 3 points, so one reply group is all that row's and the next
// one starts inside it, then rows of one and two points that share the
// groups the first row leaves open.
func dotRowsFixture(slots int) (as [][]int64, counts []int, bs [][]int64, vs []*big.Int) {
	as = [][]int64{{100, -2 * 7, -2 * 9, 1}, {0, 0, 0, 1}, {2 * 63 * 63, -2 * 63, -2 * 63, 1}}
	counts = []int{slots + 3, 1, 2}
	for i := 0; i < counts[0]+counts[1]+counts[2]; i++ {
		x, y := int64(i%14), int64((i*3)%14)
		bs = append(bs, []int64{1, x, y, x*x + y*y})
		vs = append(vs, big.NewInt(int64(i*37%1024)))
	}
	return as, counts, bs, vs
}

// TestDotManyPackedMatchesUnpacked: the rows form, replies packed across
// rows and at S = 1 alike, returns row by row exactly what ReceiverDotMany
// returns for that row on its own.
func TestDotManyPackedMatchesUnpacked(t *testing.T) {
	k := testKey(t)
	// The §5 dot products land in [0, bound+shareV): non-negative slots.
	pk, err := encoding.NewSumPacker(k.PlaintextBound(), 2*63*63+1024)
	if err != nil {
		t.Fatal(err)
	}
	as, counts, bs, vs := dotRowsFixture(pk.Slots())
	var want []*big.Int
	off := 0
	for r, a := range as {
		n := counts[r]
		if err := transport.Run2(
			func(c transport.Conn) error {
				us, err := ReceiverDotMany(c, k, a, n, rand.Reader, nil)
				want = append(want, us...)
				return err
			},
			func(c transport.Conn) error {
				return SenderDotMany(c, &k.PublicKey, bs[off:off+n], vs[off:off+n], rand.Reader, nil)
			},
		); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	for _, packer := range []*encoding.Packer{pk.OneSlot(), pk} {
		var got []*big.Int
		if err := transport.Run2(
			func(c transport.Conn) (err error) {
				got, err = ReceiverDotRows(c, k, as, counts, packer, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := SenderDotRows(c, &k.PublicKey, bs, counts, vs, packer, false, rand.Reader, nil)
				return err
			},
		); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("S=%d: %d dot products, want %d", packer.Slots(), len(got), len(want))
		}
		for i := range want {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("S=%d: dot[%d] = %v, row by row %v", packer.Slots(), i, got[i], want[i])
			}
		}
	}
}

// TestDotManyPackedRetainWireCompatible: the retaining sender must be
// indistinguishable to the receiver from the plain one — same reply
// groups, same decoded dot products — while the retained D_t decrypt to
// exactly the masked dot products the receiver sees; packed and at S = 1.
func TestDotManyPackedRetainWireCompatible(t *testing.T) {
	k := testKey(t)
	packed, err := encoding.NewSumPacker(k.PlaintextBound(), 2*63*63+1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range []*encoding.Packer{packed, packed.OneSlot()} {
		as, counts, bs, vs := dotRowsFixture(pk.Slots())
		var us [2][]*big.Int
		var ds [2][]*big.Int
		for i, retain := range []bool{false, true} {
			if err := transport.Run2(
				func(c transport.Conn) (err error) {
					us[i], err = ReceiverDotRows(c, k, as, counts, pk, rand.Reader, nil)
					return err
				},
				func(c transport.Conn) (err error) {
					ds[i], err = SenderDotRows(c, &k.PublicKey, bs, counts, vs, pk, retain, rand.Reader, nil)
					return err
				},
			); err != nil {
				t.Fatal(err)
			}
		}
		if ds[0] != nil || len(ds[1]) != len(bs) {
			t.Fatalf("S=%d: retained %d and %d ciphertexts, want none and %d", pk.Slots(), len(ds[0]), len(ds[1]), len(bs))
		}
		for i := range us[0] {
			if us[1][i].Cmp(us[0][i]) != 0 {
				t.Fatalf("S=%d: dot[%d]: retaining %v ≠ plain %v", pk.Slots(), i, us[1][i], us[0][i])
			}
			di, err := k.DecryptSigned(ds[1][i])
			if err != nil {
				t.Fatal(err)
			}
			if di.Cmp(us[0][i]) != 0 {
				t.Fatalf("S=%d: retained D_%d decrypts to %v, want %v", pk.Slots(), i, di, us[0][i])
			}
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
	rows := func(pk *encoding.Packer, retain bool) func(transport.Conn) error {
		return func(c transport.Conn) error {
			_, err := SenderDotRows(c, pub, bs, []int{len(bs)}, vs, pk, retain, rand.Reader, nil)
			return err
		}
	}
	for name, sender := range map[string]func(transport.Conn) error{
		"SenderDotMany": func(c transport.Conn) error {
			return SenderDotMany(c, pub, bs, vs, rand.Reader, nil)
		},
		"SenderDotRows one slot":       rows(pk.OneSlot(), false),
		"SenderDotRows one slot, kept": rows(pk.OneSlot(), true),
		"SenderDotRows packed":         rows(pk, false),
		"SenderDotRows packed, kept":   rows(pk, true),
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
