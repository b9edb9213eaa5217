package compare

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/yao"
)

var (
	setupOnce sync.Once
	rsaKey    *yao.RSAKey
	paiKey    *paillier.PrivateKey
)

func keys(t testing.TB) (*yao.RSAKey, *paillier.PrivateKey) {
	t.Helper()
	setupOnce.Do(func() {
		var err error
		rsaKey, err = yao.GenerateRSAKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
		paiKey, err = paillier.GenerateKey(rand.Reader, 256)
		if err != nil {
			t.Fatal(err)
		}
	})
	return rsaKey, paiKey
}

func enginePair(t testing.TB, kind EngineKind, bound int64) (Alice, Bob) {
	t.Helper()
	rk, pk := keys(t)
	switch kind {
	case EngineYMPP:
		return &YMPPAlice{Key: rk, Max: bound, Random: rand.Reader}, &YMPPBob{Pub: &rk.RSAPublicKey, Max: bound, Random: rand.Reader}
	case EngineMasked:
		a, b, err := NewMaskedPair(pk, bound, 32)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	t.Fatalf("unknown engine %q", kind)
	return nil, nil
}

// first unwraps the decision of a batch of one.
func first(bits []bool, err error) (bool, error) {
	if err == nil && len(bits) != 1 {
		err = fmt.Errorf("%d decisions from a batch of one", len(bits))
	}
	if err != nil {
		return false, err
	}
	return bits[0], nil
}

// runLessEq decides a ≤ b as a batch of one.
func runLessEq(t testing.TB, ae Alice, be Bob, a, b int64) (bool, bool) {
	t.Helper()
	var ra, rb bool
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			ra, err = first(ae.BatchLessEq(c, []int64{a}))
			return err
		},
		func(c transport.Conn) error {
			var err error
			rb, err = first(be.BatchLessEq(c, []int64{b}))
			return err
		},
	)
	if err != nil {
		t.Fatalf("%s LessEq(%d,%d): %v", ae.Name(), a, b, err)
	}
	return ra, rb
}

// runLess decides a < b as a batch of one.
func runLess(t testing.TB, ae Alice, be Bob, a, b int64) bool {
	t.Helper()
	var ra bool
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			ra, err = first(ae.BatchLess(c, []int64{a}))
			return err
		},
		func(c transport.Conn) error {
			_, err := be.BatchLess(c, []int64{b})
			return err
		},
	)
	if err != nil {
		t.Fatalf("%s Less(%d,%d): %v", ae.Name(), a, b, err)
	}
	return ra
}

// maskedEdge builds a masked engine pair over the shared test key at one
// packing — one slot a reply (packed false), the key's slots, or the key's
// slots plus the packed uplink — counting each side's ciphertexts into up
// (Alice's uplink) and down (Bob's replies).
func maskedEdge(t testing.TB, bound int64, packed, uplink bool, up, down *atomic.Int64) (Alice, Bob) {
	t.Helper()
	_, pk := keys(t)
	a, b, err := Edge{Kind: EngineMasked, MaskBits: 32, Packed: packed, Uplink: uplink,
		Key: pk, Pub: &pk.PublicKey, Up: up, Down: down}.Engines(bound)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestEnginesExhaustiveSmallDomain decides every pair of a small domain
// with each engine, the masked one at all three packings, and holds a
// masked batch of one to its wire form: three frames and one ciphertext
// each way at every packing.
func TestEnginesExhaustiveSmallDomain(t *testing.T) {
	const bound = 6
	type engine struct {
		name     string
		a        Alice
		b        Bob
		up, down *atomic.Int64 // nil for YMPP, which sends no ciphertexts
	}
	ya, yb := enginePair(t, EngineYMPP, bound)
	engines := []engine{{name: "ympp", a: ya, b: yb}}
	for _, p := range []struct {
		name           string
		packed, uplink bool
	}{{"masked/one-slot", false, false}, {"masked/slots", true, false}, {"masked/full", true, true}} {
		e := engine{name: p.name, up: new(atomic.Int64), down: new(atomic.Int64)}
		e.a, e.b = maskedEdge(t, bound, p.packed, p.uplink, e.up, e.down)
		engines = append(engines, e)
	}
	for _, e := range engines {
		for a := int64(0); a <= bound; a++ {
			for b := int64(0); b <= bound; b++ {
				ra, rb := runLessEq(t, e.a, e.b, a, b)
				if want := a <= b; ra != want || rb != want {
					t.Errorf("%s: LessEq(%d,%d) = (%v,%v), want %v", e.name, a, b, ra, rb, want)
				}
				if got := runLess(t, e.a, e.b, a, b); got != (a < b) {
					t.Errorf("%s: Less(%d,%d) = %v", e.name, a, b, got)
				}
			}
		}
		if e.up == nil {
			continue
		}
		e.up.Store(0)
		e.down.Store(0)
		ca, cb := transport.Pipe()
		ma := transport.NewMeter(ca)
		err := transport.RunPair(ma, cb,
			func(c transport.Conn) error { _, err := e.a.BatchLessEq(c, []int64{2}); return err },
			func(c transport.Conn) error { _, err := e.b.BatchLessEq(c, []int64{5}); return err })
		if err != nil {
			t.Fatal(err)
		}
		if st := ma.Stats(); st.MessagesSent != 2 || st.MessagesRecv != 1 || e.up.Load() != 1 || e.down.Load() != 1 {
			t.Errorf("%s: a batch of one sent %d and received %d frames, %d ciphertexts up and %d down; want 2, 1, 1, 1",
				e.name, st.MessagesSent, st.MessagesRecv, e.up.Load(), e.down.Load())
		}
	}
}

func TestEnginesAgreeOnRandomPairs(t *testing.T) {
	const bound = 1000
	y1, y2 := enginePair(t, EngineYMPP, bound)
	m1, m2 := enginePair(t, EngineMasked, bound)
	pairs := [][2]int64{{0, 1000}, {1000, 0}, {500, 500}, {499, 500}, {500, 499}, {0, 0}, {1000, 1000}, {7, 993}}
	for _, p := range pairs {
		ry, _ := runLessEq(t, y1, y2, p[0], p[1])
		rm, _ := runLessEq(t, m1, m2, p[0], p[1])
		if ry != rm {
			t.Errorf("engines disagree on (%d,%d): ympp=%v masked=%v", p[0], p[1], ry, rm)
		}
	}
}

func TestInputValidation(t *testing.T) {
	for _, kind := range []EngineKind{EngineYMPP, EngineMasked} {
		ae, be := enginePair(t, kind, 10)
		conn, peer := transport.Pipe()
		if _, err := ae.BatchLessEq(conn, []int64{-1}); err == nil {
			t.Errorf("%s: negative accepted", kind)
		}
		if _, err := ae.BatchLessEq(conn, []int64{11}); err == nil {
			t.Errorf("%s: overflow accepted", kind)
		}
		if _, err := be.BatchLessEq(conn, []int64{11}); err == nil {
			t.Errorf("%s: bob overflow accepted", kind)
		}
		conn.Close()
		peer.Close()
	}
}

func TestMaskedPredicateMismatchDetected(t *testing.T) {
	ae, be := enginePair(t, EngineMasked, 10)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ae.BatchLessEq(c, []int64{5})
			return err
		},
		func(c transport.Conn) error {
			_, err := be.BatchLess(c, []int64{5})
			return err
		},
	)
	if !errors.Is(err, ErrPredicateMismatch) {
		t.Errorf("err = %v, want ErrPredicateMismatch", err)
	}
}

func TestNewMaskedPairBoundValidation(t *testing.T) {
	_, pk := keys(t)
	if _, _, err := NewMaskedPair(pk, -1, 32); err == nil {
		t.Error("negative bound accepted")
	}
	// 256-bit key: plaintext bound ~2^255; a bound of 2^62 with 200 mask
	// bits overflows.
	if _, _, err := NewMaskedPair(pk, 1<<62, 200); err == nil {
		t.Error("overflowing mask configuration accepted")
	}
	if _, _, err := NewMaskedPair(pk, 1<<20, 0); err != nil {
		t.Errorf("default mask bits rejected: %v", err)
	}
}

func TestMaskedLargeDomain(t *testing.T) {
	// The masked engine's whole point: domains far beyond YMPP reach.
	_, pk := keys(t)
	const bound = int64(1) << 40
	ae, be, err := NewMaskedPair(pk, bound, 40)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][2]int64{{bound, bound - 1}, {bound - 1, bound}, {bound, bound}, {0, bound}, {1 << 39, 1<<39 + 1}}
	for _, c := range cases {
		ra, rb := runLessEq(t, ae, be, c[0], c[1])
		if want := c[0] <= c[1]; ra != want || rb != want {
			t.Errorf("LessEq(%d,%d) = (%v,%v), want %v", c[0], c[1], ra, rb, want)
		}
	}
}

func TestParseEngine(t *testing.T) {
	if k, err := ParseEngine("ympp"); err != nil || k != EngineYMPP {
		t.Errorf("ParseEngine(ympp) = %v, %v", k, err)
	}
	if k, err := ParseEngine("masked"); err != nil || k != EngineMasked {
		t.Errorf("ParseEngine(masked) = %v, %v", k, err)
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Error("bogus engine accepted")
	}
}

func TestEngineNames(t *testing.T) {
	ae, be := enginePair(t, EngineYMPP, 5)
	if ae.Name() != "ympp" || be.Name() != "ympp" {
		t.Error("ympp names wrong")
	}
	ma, mb := enginePair(t, EngineMasked, 5)
	if ma.Name() != "masked" || mb.Name() != "masked" {
		t.Error("masked names wrong")
	}
	if ae.Bound() != 5 || mb.Bound() != 5 {
		t.Error("bounds wrong")
	}
}

// The E8 ablation claim in miniature: the masked engine must move fewer
// bytes than YMPP for any non-trivial domain.
func TestMaskedCheaperThanYMPP(t *testing.T) {
	const bound = 500
	ya, yb := enginePair(t, EngineYMPP, bound)
	ma, mb := enginePair(t, EngineMasked, bound)

	measure := func(ae Alice, be Bob) int64 {
		ca, cb := transport.Pipe()
		mca, mcb := transport.NewMeter(ca), transport.NewMeter(cb)
		err := transport.RunPair(mca, mcb,
			func(c transport.Conn) error { _, err := ae.BatchLessEq(c, []int64{250}); return err },
			func(c transport.Conn) error { _, err := be.BatchLessEq(c, []int64{300}); return err },
		)
		if err != nil {
			t.Fatal(err)
		}
		return mca.Stats().Total()
	}
	yBytes := measure(ya, yb)
	mBytes := measure(ma, mb)
	if mBytes >= yBytes {
		t.Errorf("masked engine (%d bytes) not cheaper than YMPP (%d bytes)", mBytes, yBytes)
	}
}
