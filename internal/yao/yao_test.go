package yao

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/transport"
)

var (
	keyOnce sync.Once
	key     *RSAKey
)

func testRSAKey(t testing.TB) *RSAKey {
	t.Helper()
	keyOnce.Do(func() {
		k, err := GenerateRSAKey(rand.Reader, 256)
		if err != nil {
			t.Fatalf("GenerateRSAKey: %v", err)
		}
		key = k
	})
	return key
}

func TestRSAKeyRejectsSmall(t *testing.T) {
	if _, err := GenerateRSAKey(rand.Reader, 128); err == nil {
		t.Error("want error for tiny key")
	}
}

// TestSeparatingPrimeHasSepPrimeBits checks step 4's draw on a real
// decrypted range: p is prime, exactly sepPrimeBits long (the only length
// Bob's checkRound2 accepts), and every z_u is y_u mod p with the z_u
// pairwise at least 2 apart, circularly.
func TestSeparatingPrimeHasSepPrimeBits(t *testing.T) {
	k := testRSAKey(t)
	base, err := rand.Int(rand.Reader, k.N)
	if err != nil {
		t.Fatal(err)
	}
	ys := decryptRange(nil, k, base, 40)
	for trial := 0; trial < 8; trial++ {
		p, zs, err := findSeparatingPrime(rand.Reader, k.sepPrimeBits(), ys)
		if err != nil {
			t.Fatal(err)
		}
		if p.BitLen() != k.sepPrimeBits() || !p.ProbablyPrime(20) {
			t.Fatalf("p = %v: %d bits (want %d), prime %v", p, p.BitLen(), k.sepPrimeBits(), p.ProbablyPrime(20))
		}
		sorted := make([]*big.Int, len(zs))
		for u, z := range zs {
			if z.Cmp(new(big.Int).Mod(ys[u], p)) != 0 {
				t.Fatalf("z_%d = %v is not y_%d mod p", u+1, z, u+1)
			}
			sorted[u] = z
		}
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Cmp(sorted[b]) < 0 })
		gap := new(big.Int).Sub(new(big.Int).Add(sorted[0], p), sorted[len(sorted)-1])
		for u := 1; u < len(sorted) && gap.Cmp(two) >= 0; u++ {
			gap.Sub(sorted[u], sorted[u-1])
		}
		if gap.Cmp(two) < 0 {
			t.Fatalf("residues mod %v are not pairwise 2 apart", p)
		}
	}
}

func TestRSAEncryptDecryptInverse(t *testing.T) {
	k := testRSAKey(t)
	for i := 0; i < 25; i++ {
		x, err := rand.Int(rand.Reader, k.N)
		if err != nil {
			t.Fatal(err)
		}
		y := k.Encrypt(x)
		if got := k.Decrypt(y); got.Cmp(x) != 0 {
			t.Fatalf("Da(Ea(%v)) = %v", x, got)
		}
	}
}

func TestRSACRTMatchesSlowPath(t *testing.T) {
	k := testRSAKey(t)
	for i := 0; i < 10; i++ {
		y, err := rand.Int(rand.Reader, k.N)
		if err != nil {
			t.Fatal(err)
		}
		if k.Decrypt(y).Cmp(k.decryptSlow(y)) != 0 {
			t.Fatal("CRT decryption diverges from plain exponentiation")
		}
	}
}

func TestRSAPublicKeyMarshalRoundTrip(t *testing.T) {
	k := testRSAKey(t)
	nb, eb := MarshalRSAPublicKey(&k.RSAPublicKey)
	pk, err := UnmarshalRSAPublicKey(nb, eb)
	if err != nil {
		t.Fatal(err)
	}
	x := big.NewInt(987654321)
	if k.Decrypt(pk.Encrypt(x)).Cmp(x) != 0 {
		t.Error("unmarshaled key does not round trip")
	}
}

// TestUnmarshalRSAPublicKeyRejects: a peer's modulus must be at least
// MinRSABits, at most MaxRSABits and odd, its exponent odd, ≥ 3 and at
// most 32 bits — sizes checked on the encodings, before any arithmetic.
func TestUnmarshalRSAPublicKeyRejects(t *testing.T) {
	k := testRSAKey(t)
	nb, eb := MarshalRSAPublicKey(&k.RSAPublicKey)
	for _, tc := range []struct {
		name   string
		nb, eb []byte
	}{
		{"tiny modulus", big.NewInt(99).Bytes(), eb},
		{"empty modulus", nil, eb},
		{"even modulus", new(big.Int).Lsh(k.N, 1).Bytes(), eb},
		{"oversized modulus", bytes.Repeat([]byte{0xff}, MaxRSABits/8+1), eb},
		{"frame-sized modulus", bytes.Repeat([]byte{0xff}, 16<<20), eb},
		{"exponent 1", nb, big.NewInt(1).Bytes()},
		{"empty exponent", nb, nil},
		{"even exponent", nb, big.NewInt(65536).Bytes()},
		{"33-bit exponent", nb, new(big.Int).Lsh(big.NewInt(1), 32).Bytes()},
		{"frame-sized exponent", nb, bytes.Repeat([]byte{0xff}, 16<<20)},
	} {
		if _, err := UnmarshalRSAPublicKey(tc.nb, tc.eb); !errors.Is(err, ErrPublicKey) {
			t.Errorf("%s: error = %v, want ErrPublicKey", tc.name, err)
		}
	}
	largest := bytes.Repeat([]byte{0xff}, MaxRSABits/8)
	if _, err := UnmarshalRSAPublicKey(largest, []byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Errorf("an odd %d-bit modulus with an odd 32-bit exponent must be accepted: %v", MaxRSABits, err)
	}
}

// runYMPP executes one protocol instance in-process, a batch of one, and
// returns both parties' conclusions.
func runYMPP(t testing.TB, i, j, n0 int64) (aliceGot, bobGot bool) {
	t.Helper()
	k := testRSAKey(t)
	var aRes, bRes []bool
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			aRes, err = AliceCompareBatch(c, k, []int64{i}, n0, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			var err error
			bRes, err = BobCompareBatch(c, &k.RSAPublicKey, []int64{j}, n0, rand.Reader)
			return err
		},
	)
	if err != nil {
		t.Fatalf("YMPP(i=%d, j=%d, n0=%d): %v", i, j, n0, err)
	}
	if len(aRes) != 1 || len(bRes) != 1 {
		t.Fatalf("YMPP(i=%d, j=%d, n0=%d): %d and %d results for a batch of one", i, j, n0, len(aRes), len(bRes))
	}
	return aRes[0], bRes[0]
}

// lessOne runs a batch of one through a LessEq or Less batch pair and
// returns both parties' conclusions.
func lessOne(t testing.TB, alice func(c transport.Conn, k *RSAKey, as []int64) ([]bool, error),
	bob func(c transport.Conn, pub *RSAPublicKey, bs []int64) ([]bool, error), a, b int64) (aliceGot, bobGot bool) {
	t.Helper()
	k := testRSAKey(t)
	var aRes, bRes []bool
	err := transport.Run2(
		func(c transport.Conn) (err error) { aRes, err = alice(c, k, []int64{a}); return },
		func(c transport.Conn) (err error) { bRes, err = bob(c, &k.RSAPublicKey, []int64{b}); return },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(aRes) != 1 || len(bRes) != 1 {
		t.Fatalf("%d and %d results for a batch of one", len(aRes), len(bRes))
	}
	return aRes[0], bRes[0]
}

// lessEqBatch and lessBatch bind the LessEq and Less batch forms to a
// bound.
func lessEqBatch(bound int64) (func(transport.Conn, *RSAKey, []int64) ([]bool, error), func(transport.Conn, *RSAPublicKey, []int64) ([]bool, error)) {
	return func(c transport.Conn, k *RSAKey, as []int64) ([]bool, error) {
			return AliceLessEqBatch(c, k, as, bound, rand.Reader, nil)
		}, func(c transport.Conn, pub *RSAPublicKey, bs []int64) ([]bool, error) {
			return BobLessEqBatch(c, pub, bs, bound, rand.Reader)
		}
}

func lessBatch(bound int64) (func(transport.Conn, *RSAKey, []int64) ([]bool, error), func(transport.Conn, *RSAPublicKey, []int64) ([]bool, error)) {
	return func(c transport.Conn, k *RSAKey, as []int64) ([]bool, error) {
			return AliceLessBatch(c, k, as, bound, rand.Reader, nil)
		}, func(c transport.Conn, pub *RSAPublicKey, bs []int64) ([]bool, error) {
			return BobLessBatch(c, pub, bs, bound, rand.Reader)
		}
}

func TestYMPPExhaustiveSmallDomain(t *testing.T) {
	const n0 = 9
	for i := int64(1); i <= n0; i++ {
		for j := int64(1); j <= n0; j++ {
			a, b := runYMPP(t, i, j, n0)
			want := i < j
			if a != want || b != want {
				t.Fatalf("YMPP(i=%d, j=%d): alice=%v bob=%v want %v", i, j, a, b, want)
			}
		}
	}
}

func TestYMPPBoundaries(t *testing.T) {
	cases := []struct {
		i, j, n0 int64
		want     bool
	}{
		{1, 1, 1, false},
		{1, 2, 2, true},
		{2, 1, 2, false},
		{1, 64, 64, true},
		{64, 64, 64, false},
		{64, 1, 64, false},
	}
	for _, tc := range cases {
		a, b := runYMPP(t, tc.i, tc.j, tc.n0)
		if a != tc.want || b != tc.want {
			t.Errorf("YMPP(%d,%d,n0=%d) = (%v,%v), want %v", tc.i, tc.j, tc.n0, a, b, tc.want)
		}
	}
}

func TestYMPPInputValidation(t *testing.T) {
	k := testRSAKey(t)
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	if _, err := AliceCompareBatch(conn, k, []int64{0}, 10, rand.Reader, nil); err == nil {
		t.Error("i=0 accepted")
	}
	if _, err := AliceCompareBatch(conn, k, []int64{11}, 10, rand.Reader, nil); err == nil {
		t.Error("i>n0 accepted")
	}
	if _, err := BobCompareBatch(conn, &k.RSAPublicKey, []int64{5}, MaxDomain+1, rand.Reader); err == nil {
		t.Error("n0 over cap accepted")
	}
}

func TestYMPPDomainMismatchDetected(t *testing.T) {
	k := testRSAKey(t)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := AliceCompareBatch(c, k, []int64{3}, 10, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			_, err := BobCompareBatch(c, &k.RSAPublicKey, []int64{3}, 12, rand.Reader)
			return err
		},
	)
	if !errors.Is(err, ErrDomainMismatch) {
		t.Errorf("err = %v, want ErrDomainMismatch", err)
	}
}

func TestLessEqWrappers(t *testing.T) {
	const bound = 12
	alice, bob := lessEqBatch(bound)
	for a := int64(0); a <= bound; a += 3 {
		for b := int64(0); b <= bound; b += 3 {
			aGot, bGot := lessOne(t, alice, bob, a, b)
			want := a <= b
			if aGot != want || bGot != want {
				t.Errorf("LessEq(%d,%d) = (%v,%v), want %v", a, b, aGot, bGot, want)
			}
		}
	}
}

func TestLessWrappers(t *testing.T) {
	const bound = 10
	alice, bob := lessBatch(bound)
	for _, pair := range [][2]int64{{0, 0}, {0, 1}, {1, 0}, {5, 5}, {4, 5}, {10, 10}, {9, 10}, {10, 9}} {
		a, b := pair[0], pair[1]
		aGot, _ := lessOne(t, alice, bob, a, b)
		if aGot != (a < b) {
			t.Errorf("Less(%d,%d) = %v", a, b, aGot)
		}
	}
}

func TestWrapperInputValidation(t *testing.T) {
	k := testRSAKey(t)
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	if _, err := AliceLessEqBatch(conn, k, []int64{-1}, 10, rand.Reader, nil); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := BobLessEqBatch(conn, &k.RSAPublicKey, []int64{11}, 10, rand.Reader); err == nil {
		t.Error("out-of-bound value accepted")
	}
	if _, err := AliceLessBatch(conn, k, []int64{11}, 10, rand.Reader, nil); err == nil {
		t.Error("out-of-bound value accepted by AliceLessBatch")
	}
	if _, err := BobLessBatch(conn, &k.RSAPublicKey, []int64{-2}, 10, rand.Reader); err == nil {
		t.Error("negative value accepted by BobLessBatch")
	}
}

// Property test: random (a, b, bound) triples agree with plaintext ≤.
func TestYMPPProperty(t *testing.T) {
	k := testRSAKey(t)
	rng := mrand.New(mrand.NewSource(7))
	f := func() bool {
		bound := int64(rng.Intn(40) + 1)
		a := int64(rng.Intn(int(bound + 1)))
		b := int64(rng.Intn(int(bound + 1)))
		var got []bool
		err := transport.Run2(
			func(c transport.Conn) error {
				var err error
				got, err = AliceLessEqBatch(c, k, []int64{a}, bound, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := BobLessEqBatch(c, &k.RSAPublicKey, []int64{b}, bound, rand.Reader)
				return err
			},
		)
		return err == nil && len(got) == 1 && got[0] == (a <= b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The communication pattern must match the paper's O(c2·n0) accounting:
// in a batch of one, Alice's round-2 message carries exactly n0 residues
// mod a (N/2)-bit prime.
func TestYMPPCommunicationShape(t *testing.T) {
	k := testRSAKey(t)
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	const n0 = 50
	err := transport.RunPair(ma, mb,
		func(c transport.Conn) error {
			_, err := AliceCompareBatch(c, k, []int64{25}, n0, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			_, err := BobCompareBatch(c, &k.RSAPublicKey, []int64{25}, n0, rand.Reader)
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Alice sends one message (p + n0 residues); Bob sends two (round 1,
	// result bits).
	if got := ma.Stats().MessagesSent; got != 1 {
		t.Errorf("alice sent %d messages, want 1", got)
	}
	if got := mb.Stats().MessagesSent; got != 2 {
		t.Errorf("bob sent %d messages, want 2", got)
	}
	// Residues are ≤ N/2 bits = 16 bytes for the 256-bit test key; with
	// framing overhead the Alice message must stay within ~(n0+1)·(16+3).
	maxBytes := int64((n0 + 1) * (16 + 3))
	if got := ma.Stats().BytesSent; got > maxBytes {
		t.Errorf("alice sent %d bytes, want ≤ %d (O(c2·n0))", got, maxBytes)
	}
}
