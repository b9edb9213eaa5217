package core

import (
	"crypto/rand"
	"math/big"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/encoding"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// nonceOf extracts the nonce r ∈ Z*_n of c = g^m·r^n mod n² with the
// private key: c ≡ r^n (mod n), and raising to n⁻¹ mod λ undoes the n-th
// power because λ is the exponent of Z*_n and gcd(n, λ) = 1.
func nonceOf(key *paillier.PrivateKey, c *big.Int) *big.Int {
	d := new(big.Int).ModInverse(key.N, key.Lambda)
	r := new(big.Int).Mod(c, key.N)
	return r.Exp(r, d, key.N)
}

// TestEnhancedWireCiphertextsAreBlinded: the §5 responder builds its
// retained share ciphertexts D_i and the selection constant without
// nonces (paillier.Unblinded); every ciphertext it SENDS must still carry
// a fresh uniform one. The test plays the driver against the responder's
// real steps — mpc.SenderDotManyPackedRetain, then derived selection and
// final comparison batches on compare.MaskedBob with bases built as
// enhancedServeCore builds them — and uplinks an unblinded E(a), so that
// every D_i has nonce exactly 1 and a reply that took no fresh factor of
// its own would surface with nonce 1. It opens every reply with the
// private key: no nonce is 1 and no two are equal.
//
// The responder's key carries a paillier.NonceStock, as a Session's peer
// key does, stocked before the first reply so that every wire ciphertext
// takes its nonce off the shelf: the same two properties then say that the
// stock blinds, and that it hands no entry out twice.
func TestEnhancedWireCiphertextsAreBlinded(t *testing.T) {
	const (
		n        = 7
		maxCoord = 15
		bound    = 2 * maxCoord * maxCoord
		shareV   = 1 << 10
		epsSq    = 9
		maskBits = 40
		shift    = bound + shareV
	)
	key, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	// The responder holds what a peer holds: the key off the wire.
	pub, err := paillier.UnmarshalPublicKey(paillier.MarshalPublicKey(&key.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	dotPk, err := encoding.NewSumPacker(pub.PlaintextBound(), bound+shareV)
	if err != nil {
		t.Fatal(err)
	}
	// Sixteen discarded encryptions order sixteen nonces — more than the
	// replies below will ask for.
	const stocked = 16
	stock := paillier.NewNonceStock(pub, nil)
	if _, err := pub.EncryptInt64Batch(nil, rand.Reader, make([]int64, stocked)); err != nil {
		t.Fatal(err)
	}
	stock.StartFiller()
	defer stock.StopFiller()
	for deadline := time.Now().Add(30 * time.Second); stock.Stats(false).Produced < stocked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the filler produced %d of %d ordered nonces", stock.Stats(false).Produced, stocked)
		}
	}
	edge := compare.Edge{Kind: compare.EngineMasked, MaskBits: maskBits, Packed: true, Uplink: true, Key: key, Pub: pub}
	shareA, shareB, err := edge.Engines(2 * (bound + shareV))
	if err != nil {
		t.Fatal(err)
	}
	finalA, finalB, err := edge.Engines(bound + shareV)
	if err != nil {
		t.Fatal(err)
	}

	query := []int64{4, 11}
	pts := [][]int64{{4, 12}, {0, 0}, {15, 15}, {5, 9}, {4, 11}, {9, 2}, {13, 1}}
	bs := make([][]int64, n)
	vs := make([]*big.Int, n)
	vals := make([]int64, n)
	for i, p := range pts {
		bs[i] = extendedDataVector(p)
		if vs[i], err = mpc.RandomMask(rand.Reader, big.NewInt(shareV)); err != nil {
			t.Fatal(err)
		}
		vals[i] = vs[i].Int64()
	}

	driver, pipe := transport.Pipe()
	responder := &sentTap{Conn: pipe}

	// Share phase. The driver's uplink is the one frame the test builds by
	// hand: E(a) with nonce 1 throughout.
	a := extendedQueryVector(query)
	uplink := make([]*big.Int, len(a))
	for k, ak := range a {
		if uplink[k], err = key.Unblinded(big.NewInt(ak)); err != nil {
			t.Fatal(err)
		}
	}
	if err := transport.SendMsg(driver, transport.NewBuilder().PutUint(n).PutBigs(uplink)); err != nil {
		t.Fatal(err)
	}
	ds, err := mpc.SenderDotManyPackedRetain(responder, pub, bs, vs, dotPk, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if r := nonceOf(key, d); r.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("retained D_%d has nonce %v, want 1: the test no longer isolates the replies' own nonces", i, r)
		}
	}
	r, err := transport.RecvMsg(driver)
	if err != nil {
		t.Fatal(err)
	}
	shareReplies := r.Bigs()
	if r.Err() != nil || len(shareReplies) != dotPk.Groups(n) {
		t.Fatalf("share reply: %d groups (%v), want %d", len(shareReplies), r.Err(), dotPk.Groups(n))
	}
	us := make([]int64, 0, n)
	for g, ct := range shareReplies {
		packed, err := key.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		slots, err := dotPk.Unpack(packed, dotPk.GroupLen(n, g))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range slots {
			us = append(us, u.Int64())
		}
	}

	// Selection shape: every adjacent pair, Dist_x ≤ Dist_y.
	pairs := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	encShift, err := pub.Unblinded(big.NewInt(shift))
	if err != nil {
		t.Fatal(err)
	}
	driverOps := make([]int64, len(pairs))
	responderOps := make([]int64, len(pairs))
	for i, pr := range pairs {
		driverOps[i] = us[pr[0]] - us[pr[1]] + shift
		responderOps[i] = vals[pr[0]] - vals[pr[1]] + shift
	}
	var les []bool
	if err := both(
		func() (err error) {
			les, err = shareA.(compare.DerivedAlice).BatchLessEqDerived(driver, driverOps)
			return
		},
		func() error {
			_, err := shareB.(compare.DerivedBob).BatchLessEqDerived(responder, responderOps, func(i int) (*big.Int, error) {
				return derivedShareDiff(pub, ds, encShift, pairs[i])
			})
			return err
		},
	); err != nil {
		t.Fatal(err)
	}
	dist := func(i int) int64 {
		dx, dy := query[0]-pts[i][0], query[1]-pts[i][1]
		return dx*dx + dy*dy
	}
	for i, pr := range pairs {
		if want := dist(pr[0]) <= dist(pr[1]); les[i] != want {
			t.Errorf("selection pair %v: got %v, want %v", pr, les[i], want)
		}
	}

	// Final shape: Dist_κ ≤ Eps² on the retained D_κ itself.
	const kth = 3
	var core []bool
	if err := both(
		func() (err error) {
			core, err = finalA.(compare.DerivedAlice).BatchLessEqDerived(driver, []int64{us[kth]})
			return
		},
		func() error {
			_, err := finalB.(compare.DerivedBob).BatchLessEqDerived(responder, []int64{epsSq + vals[kth]},
				func(int) (*big.Int, error) { return ds[kth], nil })
			return err
		},
	); err != nil {
		t.Fatal(err)
	}
	if want := dist(kth) <= epsSq; len(core) != 1 || core[0] != want {
		t.Errorf("final comparison: got %v, want %v", core, want)
	}

	// Every frame the responder sent is a ciphertext frame: the share
	// groups, then the one reply of each comparison batch.
	if len(responder.sent) != 3 {
		t.Fatalf("responder sent %d frames, want 3 (share, selection, final replies)", len(responder.sent))
	}
	var wire []*big.Int
	for _, frame := range responder.sent {
		r := transport.NewReader(frame)
		cts := r.Bigs()
		if r.Err() != nil || len(cts) == 0 {
			t.Fatalf("reply frame holds %d ciphertexts (%v)", len(cts), r.Err())
		}
		wire = append(wire, cts...)
	}
	seen := make(map[string]int, len(wire))
	for i, ct := range wire {
		r := nonceOf(key, ct)
		if r.Cmp(big.NewInt(1)) == 0 {
			t.Errorf("wire ciphertext %d of %d left the responder with nonce 1", i, len(wire))
		}
		if j, dup := seen[r.String()]; dup {
			t.Errorf("wire ciphertexts %d and %d share a nonce", j, i)
		}
		seen[r.String()] = i
	}
	if st := stock.Stats(false); int(st.Hits) != len(wire) || st.Misses != stocked {
		t.Errorf("stock %+v: want all %d wire ciphertexts served off the shelf and only the %d ordering encryptions missed", st, len(wire), stocked)
	}
}
