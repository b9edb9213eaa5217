package compare

import (
	"crypto/rand"
	"errors"
	"math/big"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/encoding"
	"repro/internal/paillier"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// fullPair builds a masked engine pair in "full" packing mode — packed
// replies plus the packed-uplink wire form — with Sent counters wired.
func fullPair(t testing.TB, bound int64, maskBits int) (*MaskedAlice, *MaskedBob) {
	t.Helper()
	_, pk := keys(t)
	a, b, err := NewMaskedPair(pk, bound, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	packer, err := encoding.NewComparePacker(pk.PlaintextBound(), bound, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	up, err := encoding.NewUplinkComparePacker(pk.PlaintextBound(), bound, maskBits)
	if err != nil {
		t.Fatal(err)
	}
	a.Packer, b.Packer = packer, packer
	a.UplinkPacker, b.UplinkPacker = up, up
	a.Sent, b.Sent = new(atomic.Int64), new(atomic.Int64)
	return a, b
}

func TestFullBatchMatchesPlaintext(t *testing.T) {
	const bound = 20
	ae, be := fullPair(t, bound, 32)
	if ae.Packer.Slots() < 2 {
		t.Fatalf("test key packs only %d slots; want ≥ 2", ae.Packer.Slots())
	}
	// Repeats force modeGrouped; more instances than one slot group,
	// with a short final group, so grouping and the tail are exercised.
	n := ae.Packer.Slots()*2 + 1
	as := make([]int64, n)
	bs := make([]int64, n)
	for i := range as {
		as[i] = int64(i*7) % 4 // few classes → heavy dedup
		bs[i] = int64(i*5+3) % (bound + 1)
	}
	as[0], bs[0] = 0, 0
	as[1], bs[1] = bound, 0
	as[2], bs[2] = 0, bound
	got := runBatchLessEq(t, ae, be, as, bs)
	for i := range as {
		if want := as[i] <= bs[i]; got[i] != want {
			t.Errorf("full batch[%d]: %d ≤ %d = %v, want %v", i, as[i], bs[i], got[i], want)
		}
	}
	gotLess := runBatchLess(t, ae, be, as, bs)
	for i := range as {
		if want := as[i] < bs[i]; gotLess[i] != want {
			t.Errorf("full strict batch[%d]: %d < %d = %v, want %v", i, as[i], bs[i], gotLess[i], want)
		}
	}
}

// TestFullGroupedUplinkCounts pins the ciphertext economics of the two
// non-derived modes: an all-equal batch uplinks exactly one ciphertext,
// an all-distinct batch falls back to one per instance, and both reply
// in ⌈n/S⌉ groups.
func TestFullGroupedUplinkCounts(t *testing.T) {
	const bound = 100
	ae, be := fullPair(t, bound, 32)
	n := ae.Packer.Slots() + 2

	same := make([]int64, n)
	bs := make([]int64, n)
	for i := range same {
		same[i], bs[i] = 7, int64(i)%bound
	}
	runBatchLessEq(t, ae, be, same, bs)
	if up := ae.Sent.Load(); up != 1 {
		t.Fatalf("all-equal batch uplinked %d ciphertexts, want 1", up)
	}
	if down := be.Sent.Load(); down != int64(ae.Packer.Groups(n)) {
		t.Fatalf("all-equal batch replied %d ciphertexts, want %d", down, ae.Packer.Groups(n))
	}

	ae.Sent.Store(0)
	be.Sent.Store(0)
	distinct := make([]int64, n)
	for i := range distinct {
		distinct[i] = int64(i)
	}
	runBatchLessEq(t, ae, be, distinct, bs)
	if up := ae.Sent.Load(); up != int64(n) {
		t.Fatalf("all-distinct batch uplinked %d ciphertexts, want the per-instance fallback %d", up, n)
	}
}

// TestFullBoundExtremes drives grouped slots to their extremes: the
// maximal positive and maximal negative differences share single uplink
// ciphertexts while every slot still decides independently — negative
// differences prove the signed path through the packed decode.
func TestFullBoundExtremes(t *testing.T) {
	const bound = 63*63*2 + 2 // the HDP comparison domain at grid 64, dim 2
	ae, be := fullPair(t, bound, DefaultMaskBits)
	n := ae.Packer.Slots() * 2
	if n < 4 {
		t.Skip("key too small to group slots")
	}
	as := make([]int64, n)
	bs := make([]int64, n)
	for i := range as {
		if i%2 == 0 {
			as[i], bs[i] = 0, bound // maximal positive difference
		} else {
			as[i], bs[i] = bound, 0 // maximal negative difference
		}
	}
	got := runBatchLessEq(t, ae, be, as, bs)
	for i := range as {
		if want := as[i] <= bs[i]; got[i] != want {
			t.Errorf("extreme slot %d: %d ≤ %d = %v, want %v (carry crossed a slot)", i, as[i], bs[i], got[i], want)
		}
	}
	if up := ae.Sent.Load(); up != 2 {
		t.Fatalf("two-class extreme batch uplinked %d ciphertexts, want 2", up)
	}
}

// TestFullDegenerateSingleSlot forces S = 1 on the reply packer: the
// full path's replies then carry one (biased) ciphertext per instance,
// and must still decide exactly what the one-slot engine decides.
func TestFullDegenerateSingleSlot(t *testing.T) {
	const bound = 30
	_, pk := keys(t)
	plainA, plainB, err := NewMaskedPair(pk, bound, 32)
	if err != nil {
		t.Fatal(err)
	}
	ae, be := fullPair(t, bound, 32)
	one, err := encoding.NewPacker(pk.PlaintextBound(), new(big.Int).Rsh(pk.PlaintextBound(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if one.Slots() != 1 {
		t.Fatalf("slots = %d, want the degenerate 1", one.Slots())
	}
	ae.Packer, be.Packer = one, one
	as := []int64{0, bound, 17, 17, 4}
	bs := []int64{bound, 0, 17, 16, 5}
	want := runBatchLessEq(t, plainA, plainB, as, bs)
	got := runBatchLessEq(t, ae, be, as, bs)
	for i := range as {
		if got[i] != want[i] {
			t.Errorf("degenerate full[%d]: got %v, one-slot engine %v", i, got[i], want[i])
		}
	}
}

// TestFullDerivedBatch exercises modeDerived end to end under the ≤
// predicate, the one derived batches run: Bob supplies every base
// ciphertext from retained material (zero uplink ciphertexts), operands
// are signed on both sides, and extremes span the widened uplink slots.
func TestFullDerivedBatch(t *testing.T) {
	const bound = 500
	ae, be := fullPair(t, bound, 32)
	up := ae.UplinkPacker
	n := up.Slots()*2 + 1
	if n < 3 {
		t.Skip("key too small to group widened slots")
	}
	as := make([]int64, n)
	bs := make([]int64, n)
	for i := range as {
		as[i] = int64(i*37)%(2*bound+1) - bound
		bs[i] = int64(i*59+11)%(2*bound+1) - bound
	}
	as[0], bs[0] = -bound, bound // maximal positive difference
	as[1], bs[1] = bound, -bound // maximal negative difference
	as[2], bs[2] = -bound, -bound

	// Bob's retained bases: E(−a_t) under Alice's key, negatives built
	// homomorphically as E(|a|)^(−1) the way protocol state would be.
	bases := make([]*big.Int, n)
	for i, a := range as {
		mag := a
		if mag < 0 {
			mag = -mag
		}
		ct, err := ae.Key.Encrypt(nil, big.NewInt(mag))
		if err != nil {
			t.Fatal(err)
		}
		if a > 0 {
			if ct, err = be.Pub.Mul(ct, big.NewInt(-1)); err != nil {
				t.Fatal(err)
			}
		}
		bases[i] = ct
	}
	base := func(t int) (*big.Int, error) { return bases[t], nil }

	var got, gotB []bool
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			got, err = ae.BatchLessEqDerived(c, as)
			return err
		},
		func(c transport.Conn) error {
			var err error
			gotB, err = be.BatchLessEqDerived(c, bs, base)
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		if want := as[i] <= bs[i]; got[i] != want || gotB[i] != want {
			t.Errorf("derived[%d]: %d ≤ %d = %v/%v, want %v", i, as[i], bs[i], got[i], gotB[i], want)
		}
	}
	if up := ae.Sent.Load(); up != 0 {
		t.Fatalf("derived batch uplinked %d ciphertexts, want 0", up)
	}
	if down := be.Sent.Load(); down != int64(up2groups(ae, n)) {
		t.Fatalf("derived batch replied %d ciphertexts, want %d", down, up2groups(ae, n))
	}
}

func up2groups(a *MaskedAlice, n int) int { return a.UplinkPacker.Groups(n) }

// TestFullModeMismatchDetected: a derived Alice against a plain full
// Bob (and vice versa) must error out, not mis-decide.
func TestFullModeMismatchDetected(t *testing.T) {
	ae, be := fullPair(t, 50, 32)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ae.BatchLessEqDerived(c, []int64{1, 2})
			return err
		},
		func(c transport.Conn) error {
			_, err := be.BatchLessEq(c, []int64{3, 4})
			return err
		},
	)
	if err == nil {
		t.Fatal("derived Alice against plain full Bob decided without error")
	}
	err = transport.Run2(
		func(c transport.Conn) error {
			_, err := ae.BatchLessEq(c, []int64{1, 2})
			return err
		},
		func(c transport.Conn) error {
			_, err := be.BatchLessEqDerived(c, []int64{3, 4}, func(int) (*big.Int, error) { return nil, nil })
			return err
		},
	)
	if err == nil {
		t.Fatal("plain full Alice against derived Bob decided without error")
	}
}

// TestFullPerSlotMasksIndependent is the leakage regression for the
// whole construction: even when every slot of a grouped batch shares
// ONE uplink ciphertext, each slot's multiplier must be freshly drawn.
// The test plays Alice by hand with a difference D > 2^κ, so each
// decrypted slot t_i = r_i·D + r′_i yields r_i = ⌊t_i/D⌋ exactly
// (r′_i < r_i ≤ 2^κ < D) — a shared-multiplier implementation would
// surface as identical r_i across the group.
func TestFullPerSlotMasksIndependent(t *testing.T) {
	const maskBits = 20
	const bound = 1 << 21
	const d = 1 << 21 // b − a, above the 2^20 mask space
	ae, be := fullPair(t, bound, maskBits)
	pk := ae.Packer
	n := pk.Slots()
	if n < 3 {
		t.Skipf("only %d slots; want ≥ 3 to judge independence", n)
	}
	bs := make([]int64, n)
	for i := range bs {
		bs[i] = d
	}

	var rs []*big.Int
	err := transport.Run2(
		func(c transport.Conn) error {
			// Hand-rolled grouped Alice: one uplink ciphertext of a = 0
			// shared by every slot.
			ct, err := ae.Key.Encrypt(nil, big.NewInt(0))
			if err != nil {
				return err
			}
			classIdx := make([]int64, n)
			msg := transport.NewBuilder().PutUint(uint64(predLessEq)).PutUint(uint64(modeGrouped)).
				PutInts(classIdx).PutBigs([]*big.Int{ct})
			if err := transport.SendMsg(c, msg); err != nil {
				return err
			}
			r, err := transport.RecvMsg(c)
			if err != nil {
				return err
			}
			replies := r.Bigs()
			if err := r.Err(); err != nil {
				return err
			}
			les := make([]bool, n)
			for g, reply := range replies {
				pv, err := ae.Key.Decrypt(reply)
				if err != nil {
					return err
				}
				slots, err := pk.Unpack(pv, pk.GroupLen(n, g))
				if err != nil {
					return err
				}
				for s, ti := range slots {
					// t_i = r_i·D + r′_i with r′_i < r_i ≤ 2^κ < D.
					rs = append(rs, new(big.Int).Div(ti, big.NewInt(d)))
					les[g*pk.Slots()+s] = ti.Sign() >= 0
				}
			}
			return transport.SendMsg(c, transport.NewBuilder().PutBools(les))
		},
		func(c transport.Conn) error {
			_, err := be.BatchLessEq(c, bs)
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != n {
		t.Fatalf("recovered %d multipliers, want %d", len(rs), n)
	}
	maskSpace := new(big.Int).Lsh(big.NewInt(1), maskBits)
	for i, r := range rs {
		if r.Sign() <= 0 || r.Cmp(maskSpace) > 0 {
			t.Fatalf("slot %d multiplier %v outside [1, 2^%d]", i, r, maskBits)
		}
		for j := i + 1; j < len(rs); j++ {
			if r.Cmp(rs[j]) == 0 {
				t.Fatalf("slots %d and %d share multiplier %v — per-slot masks are not independent", i, j, r)
			}
		}
	}
}

// FuzzPackedUplink round-trips arbitrary batches through the
// packed-uplink wire form, up to four replies' worth of slots and with a
// drawn row length, so grouped classes span columns of the reply layout.
// Whatever the operands, repeats, rows and predicate, both parties must
// decide exactly the plaintext predicate; every uplink ciphertext must
// decrypt to its operand negated and pre-shifted, −a·2^{w·σ}, by the σ
// Bob derives from the layout and the class indices he read; and every
// instance's relative fold slot must lie in [0, S).
func FuzzPackedUplink(f *testing.F) {
	f.Add(int64(0), int64(0), int64(1), int64(2), uint8(3), uint8(0), false)
	f.Add(int64(20), int64(0), int64(0), int64(20), uint8(7), uint8(255), true)
	f.Add(int64(13), int64(13), int64(13), int64(13), uint8(1), uint8(0), false)
	f.Add(int64(5), int64(19), int64(5), int64(4), uint8(12), uint8(4), true)
	f.Add(int64(3), int64(8), int64(11), int64(2), uint8(23), uint8(6), false)
	f.Add(int64(1), int64(2), int64(3), int64(4), uint8(200), uint8(9), true)
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1 int64, nRaw, rowRaw uint8, strict bool) {
		const bound = 20
		ae, be := fullPair(t, bound, 32)
		pk := ae.Packer
		n := int(nRaw)%(pk.Slots()*4+1) + 1
		rowLen := int(rowRaw)%n + 1
		clamp := func(v int64) int64 {
			v %= bound + 1
			if v < 0 {
				v += bound + 1
			}
			return v
		}
		as := make([]int64, n)
		bs := make([]int64, n)
		rows := make([]int, n)
		seeds := [4]int64{a0, a1, b0, b1}
		for i := range as {
			as[i] = clamp(seeds[i%2] + int64(i/2))
			bs[i] = clamp(seeds[2+i%2] + int64(i*3/4))
			rows[i] = i / rowLen
		}
		var got []bool
		tap := &uplinkTap{}
		err := transport.Run2(
			func(c transport.Conn) (err error) {
				if strict {
					got, err = ae.BatchLessRows(c, as, rows)
				} else {
					got, err = ae.BatchLessEqRows(c, as, rows)
				}
				return err
			},
			func(c transport.Conn) (err error) {
				tap.Conn = c
				if strict {
					_, err = be.BatchLess(tap, bs)
				} else {
					_, err = be.BatchLessEq(tap, bs)
				}
				return err
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		for i := range as {
			want := as[i] <= bs[i]
			if strict {
				want = as[i] < bs[i]
			}
			if got[i] != want {
				t.Fatalf("fuzz batch[%d]: a=%d b=%d strict=%v got %v want %v", i, as[i], bs[i], strict, got[i], want)
			}
		}
		if up, down := ae.Sent.Load(), be.Sent.Load(); up > int64(n) || down != int64(pk.Groups(n)) {
			t.Fatalf("fuzz batch sent up=%d down=%d for n=%d (slots=%d)", up, down, n, pk.Slots())
		}

		r := transport.NewReader(tap.first)
		r.Uint()
		mode := byte(r.Uint())
		var classIdx []int64
		if mode == modeGrouped {
			classIdx = r.Ints(n)
		}
		cts := r.Bigs()
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		l := newReplyLayout(pk, n)
		base, lift, err := uplinkBases(l, mode, classIdx, cts)
		if err != nil {
			t.Fatalf("Bob refuses an honest uplink: %v", err)
		}
		for i, a := range as {
			ct, err := base(i)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ae.Key.DecryptSigned(ct)
			if err != nil {
				t.Fatal(err)
			}
			if want := new(big.Int).Lsh(big.NewInt(-a), pk.Width()*uint(lift[i])); m.Cmp(want) != 0 {
				t.Fatalf("instance %d (a=%d): its uplink decrypts to %v, want −a pre-shifted to Bob's σ = %d", i, a, m, lift[i])
			}
			if d := l.slot(i) - lift[i]; d < 0 || d >= pk.Slots() {
				t.Fatalf("instance %d: relative fold slot %d outside [0, %d)", i, d, pk.Slots())
			}
		}
	})
}

// TestFullUplinkUnnamedClassIsTypedError plays a hostile Alice whose
// grouped uplink carries a ciphertext no class index names — in one case
// beside as many as there are instances, in the other one more than
// there are instances. Such a ciphertext has no lowest slot to be
// pre-shifted to; Bob must refuse it with ErrUplinkClass before drawing a
// mask or a nonce, and reply nothing.
func TestFullUplinkUnnamedClassIsTypedError(t *testing.T) {
	const bound = 20
	_, be := fullPair(t, bound, 32)
	_, key := keys(t)
	cts := make([]*big.Int, 3)
	for i := range cts {
		ct, err := key.Encrypt(nil, big.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	for _, tc := range []struct {
		name     string
		classIdx []int64
		cts      []*big.Int
	}{
		{"unnamed ciphertext", []int64{0, 0}, cts[:2]},
		{"more ciphertexts than instances", []int64{0, 1}, cts},
	} {
		draws := &countingReader{}
		be.Random = draws
		var bobErr error
		var replied bool
		_ = transport.Run2(
			func(c transport.Conn) error {
				msg := transport.NewBuilder().PutUint(uint64(predLessEq)).PutUint(uint64(modeGrouped)).
					PutInts(tc.classIdx).PutBigs(tc.cts)
				if err := transport.SendMsg(c, msg); err != nil {
					return err
				}
				_, err := c.Recv()
				replied = err == nil
				return nil
			},
			func(c transport.Conn) error {
				_, bobErr = be.BatchLessEq(c, []int64{5, 7})
				c.Close()
				return bobErr
			},
		)
		if !errors.Is(bobErr, ErrUplinkClass) {
			t.Errorf("%s: bob's error = %v, want ErrUplinkClass", tc.name, bobErr)
		}
		if draws.n != 0 || replied || be.Sent.Load() != 0 {
			t.Errorf("%s: bob drew %d random bytes and replied %v (%d ciphertexts) before refusing", tc.name, draws.n, replied, be.Sent.Load())
		}
	}
}

// countingReader is crypto/rand counting the bytes it hands out.
type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	k, err := rand.Read(p)
	r.n += k
	return k, err
}

// TestMaskedFoldSpan holds the reply layout to its purpose on the
// lockstep shape — rows of L instances, each row's repeats one class, a
// batch many times S: filed under relative slots, no reply's fold spans
// more than ⌈L/G⌉+1 of them, where the row-major layout spanned up to S.
// A per-instance batch folds every reply within one slot.
func TestMaskedFoldSpan(t *testing.T) {
	plainBound := new(big.Int).Lsh(big.NewInt(1), 1023) // a 1024-bit key
	pk, err := encoding.NewComparePacker(plainBound, 63*63*2+2, DefaultMaskBits)
	if err != nil {
		t.Fatal(err)
	}
	S := pk.Slots()
	span := func(l replyLayout, lift []int) (most int) {
		for g := 0; g < l.groups; g++ {
			most = max(most, len(l.foldSlots(g, lift)))
		}
		return most
	}
	for _, shape := range []struct{ rows, L int }{{40, 7}, {16, 30}, {9, 100}, {200, 1}} {
		n := shape.rows * shape.L
		vs := make([]int64, n)
		rows := make([]int, n)
		for i := range vs {
			rows[i] = i / shape.L
			vs[i] = int64(i%shape.L) % 5 // five distinct operands a row
		}
		l := newReplyLayout(pk, n)
		operands, classIdx := announceUplink(transport.NewBuilder(), vs, rows)
		_, lift, err := l.shifts(classIdx, len(operands))
		if err != nil {
			t.Fatal(err)
		}
		limit := (shape.L+l.groups-1)/l.groups + 1
		if got := span(l, lift); got > limit || got > S {
			t.Errorf("rows of %d, n = %d over S = %d: a reply folds across %d relative slots, want ≤ %d", shape.L, n, S, got, limit)
		}
		_, perInstance, err := l.shifts(nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := span(l, perInstance); got != 1 {
			t.Errorf("n = %d: a per-instance reply folds across %d relative slots, want 1", n, got)
		}
	}
}

// TestFullUplinkNonUnitIsTypedError plays a hostile uplink: an honest
// Alice's frame with one ciphertext swapped on the wire for a non-unit
// mod n² — a multiple of a prime factor of n (n itself: p·q), or 0 — in
// range, but no encryption of anything. Bob folds every uplink base by a
// positive mask and never inverts, so his batched unit check must refuse
// it with paillier.ErrNotInvertible before drawing a mask or a nonce, in
// a per-instance and a grouped uplink alike; Alice, left without a
// reply, returns the closed-connection error; and neither side leaves a
// goroutine behind.
func TestFullUplinkNonUnitIsTypedError(t *testing.T) {
	const bound = 20
	ae, be := fullPair(t, bound, 32)
	_, key := keys(t)
	for _, tc := range []struct {
		name string
		as   []int64
		bad  *big.Int
		mode byte
	}{
		{"per-instance, n", []int64{3, 9}, key.N, modePerInstance},
		{"per-instance, zero", []int64{3, 9}, new(big.Int), modePerInstance},
		{"grouped, n", []int64{3, 3, 9}, key.N, modeGrouped},
		{"grouped, zero", []int64{3, 9, 9}, new(big.Int), modeGrouped},
	} {
		before := runtime.NumGoroutine()
		draws := &countingReader{}
		be.Random = draws
		be.Sent.Store(0)
		var aliceErr, bobErr error
		var mode byte
		_ = transport.Run2(
			func(c transport.Conn) error {
				tamper := &uplinkTamper{Conn: c, bad: tc.bad, mode: &mode}
				_, aliceErr = ae.BatchLessEq(tamper, tc.as)
				return aliceErr
			},
			func(c transport.Conn) error {
				_, bobErr = be.BatchLessEq(c, []int64{5, 7, 11}[:len(tc.as)])
				return bobErr
			},
		)
		if mode != tc.mode {
			t.Fatalf("%s: the uplink went up in mode %d, want %d", tc.name, mode, tc.mode)
		}
		if !errors.Is(bobErr, paillier.ErrNotInvertible) {
			t.Errorf("%s: bob's error = %v, want paillier.ErrNotInvertible", tc.name, bobErr)
		}
		if !errors.Is(aliceErr, transport.ErrClosed) {
			t.Errorf("%s: alice's error = %v, want transport.ErrClosed", tc.name, aliceErr)
		}
		if draws.n != 0 || be.Sent.Load() != 0 {
			t.Errorf("%s: bob drew %d random bytes and sent %d ciphertexts before refusing", tc.name, draws.n, be.Sent.Load())
		}
		testutil.CheckNoLeak(t, before, tc.name)
	}
}

// uplinkTamper passes frames through, except that it rewrites the first
// one it sends — a masked uplink — with its last ciphertext replaced by
// bad, and records the uplink's mode.
type uplinkTamper struct {
	transport.Conn
	bad  *big.Int
	mode *byte
	done bool
}

func (c *uplinkTamper) Send(b []byte) error {
	if c.done {
		return c.Conn.Send(b)
	}
	c.done = true
	r := transport.NewReader(b)
	msg := transport.NewBuilder().PutUint(r.Uint())
	*c.mode = byte(r.Uint())
	msg.PutUint(uint64(*c.mode))
	if *c.mode == modeGrouped {
		msg.PutInts(r.Ints(r.Remaining()))
	}
	cts := r.Bigs()
	if err := r.Err(); err != nil {
		return err
	}
	cts[len(cts)-1] = c.bad
	return c.Conn.Send(msg.PutBigs(cts).Bytes())
}

// uplinkTap records the first frame its side receives — what Bob sees of
// a batch's uplink — and passes every frame through.
type uplinkTap struct {
	transport.Conn
	first []byte
}

func (c *uplinkTap) Recv() ([]byte, error) {
	b, err := c.Conn.Recv()
	if err == nil && c.first == nil {
		c.first = append([]byte{}, b...)
	}
	return b, err
}

// TestGroupedUplinkNeverSpansRows: the grouped uplink's classes are keyed
// by (row, value). Bob, reading the frame off the wire, sees two rows that
// hold the same Alice value as two uplink ciphertexts with disjoint class
// indices, sees the within-row repeats share one, and decides every
// instance correctly; the same operands as one row dedup across the whole
// batch; and a batch whose only repeats cross rows is not grouped at all.
func TestGroupedUplinkNeverSpansRows(t *testing.T) {
	const bound = 50
	ae, be := fullPair(t, bound, 32)
	as := []int64{5, 5, 9, 5, 9, 5}
	bs := []int64{5, 6, 3, 40, 9, 0}
	rows := []int{4, 4, 4, 7, 7, 9}

	// uplink runs one strict batch and returns what Bob saw of its uplink.
	uplink := func(as, bs []int64, rows []int) (mode byte, classIdx []int64, cts int) {
		t.Helper()
		ae.Sent.Store(0)
		var tap *uplinkTap
		var got []bool
		err := transport.Run2(
			func(c transport.Conn) (err error) {
				got, err = ae.BatchLessRows(c, as, rows)
				return err
			},
			func(c transport.Conn) error {
				tap = &uplinkTap{Conn: c}
				_, err := be.BatchLess(tap, bs)
				return err
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		for i := range as {
			if want := as[i] < bs[i]; got[i] != want {
				t.Errorf("batch[%d]: %d < %d = %v, want %v", i, as[i], bs[i], got[i], want)
			}
		}
		r := transport.NewReader(tap.first)
		if pred := byte(r.Uint()); pred != predLess {
			t.Fatalf("uplink predicate byte %d, want %d", pred, predLess)
		}
		mode = byte(r.Uint())
		if mode == modeGrouped {
			classIdx = r.Ints(len(as))
		}
		cts = len(r.Bigs())
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if sent := int(ae.Sent.Load()); sent != cts {
			t.Fatalf("Alice counted %d uplink ciphertexts, the frame carries %d", sent, cts)
		}
		return mode, classIdx, cts
	}

	mode, classIdx, cts := uplink(as, bs, rows)
	if mode != modeGrouped {
		t.Fatalf("rows with repeats went up in mode %d, want grouped", mode)
	}
	// Row 4 holds {5, 9}, row 7 holds {5, 9}, row 9 holds {5}.
	if cts != 5 {
		t.Errorf("uplink carries %d ciphertexts, want 5: one per distinct value of each row", cts)
	}
	for i := range as {
		for j := i + 1; j < len(as); j++ {
			same := classIdx[i] == classIdx[j]
			if want := rows[i] == rows[j] && as[i] == as[j]; same != want {
				t.Errorf("instances %d (row %d, value %d) and %d (row %d, value %d): same class = %v, want %v",
					i, rows[i], as[i], j, rows[j], as[j], same, want)
			}
		}
	}

	// The plain entry point is one row: the same operands dedup to the
	// two distinct values.
	if mode, _, cts := uplink(as, bs, nil); mode != modeGrouped || cts != 2 {
		t.Errorf("one-row batch: mode %d with %d ciphertexts, want grouped with 2", mode, cts)
	}
	// Equal values in different rows only: nothing to group.
	if mode, _, cts := uplink([]int64{5, 5, 5}, []int64{1, 5, 9}, []int{0, 1, 2}); mode != modePerInstance || cts != 3 {
		t.Errorf("cross-row repeats only: mode %d with %d ciphertexts, want per-instance with 3", mode, cts)
	}

	// A rows slice of the wrong length is a caller bug, refused before
	// any frame.
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ae.BatchLessRows(c, as, rows[:3])
			return err
		},
		func(c transport.Conn) error { return nil },
	)
	if err == nil {
		t.Error("rows of the wrong length accepted")
	}
}
