package yao

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
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

// runYMPP executes one protocol instance in-process and returns both
// parties' conclusions.
func runYMPP(t testing.TB, i, j, n0 int64) (aliceGot, bobGot bool) {
	t.Helper()
	k := testRSAKey(t)
	var aRes, bRes bool
	err := transport.Run2(
		func(c transport.Conn) error {
			var err error
			aRes, err = AliceCompare(c, k, i, n0, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			var err error
			bRes, err = BobCompare(c, &k.RSAPublicKey, j, n0, rand.Reader)
			return err
		},
	)
	if err != nil {
		t.Fatalf("YMPP(i=%d, j=%d, n0=%d): %v", i, j, n0, err)
	}
	return aRes, bRes
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
	if _, err := AliceCompare(conn, k, 0, 10, rand.Reader, nil); err == nil {
		t.Error("i=0 accepted")
	}
	if _, err := AliceCompare(conn, k, 11, 10, rand.Reader, nil); err == nil {
		t.Error("i>n0 accepted")
	}
	if _, err := BobCompare(conn, &k.RSAPublicKey, 5, MaxDomain+1, rand.Reader); err == nil {
		t.Error("n0 over cap accepted")
	}
}

func TestYMPPDomainMismatchDetected(t *testing.T) {
	k := testRSAKey(t)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := AliceCompare(c, k, 3, 10, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			_, err := BobCompare(c, &k.RSAPublicKey, 3, 12, rand.Reader)
			return err
		},
	)
	if !errors.Is(err, ErrDomainMismatch) {
		t.Errorf("err = %v, want ErrDomainMismatch", err)
	}
}

func TestLessEqWrappers(t *testing.T) {
	k := testRSAKey(t)
	const bound = 12
	for a := int64(0); a <= bound; a += 3 {
		for b := int64(0); b <= bound; b += 3 {
			var aGot, bGot bool
			err := transport.Run2(
				func(c transport.Conn) error {
					var err error
					aGot, err = AliceLessEq(c, k, a, bound, rand.Reader, nil)
					return err
				},
				func(c transport.Conn) error {
					var err error
					bGot, err = BobLessEq(c, &k.RSAPublicKey, b, bound, rand.Reader)
					return err
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			want := a <= b
			if aGot != want || bGot != want {
				t.Errorf("LessEq(%d,%d) = (%v,%v), want %v", a, b, aGot, bGot, want)
			}
		}
	}
}

func TestLessWrappers(t *testing.T) {
	k := testRSAKey(t)
	const bound = 10
	for _, pair := range [][2]int64{{0, 0}, {0, 1}, {1, 0}, {5, 5}, {4, 5}, {10, 10}, {9, 10}, {10, 9}} {
		a, b := pair[0], pair[1]
		var aGot bool
		err := transport.Run2(
			func(c transport.Conn) error {
				var err error
				aGot, err = AliceLess(c, k, a, bound, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := BobLess(c, &k.RSAPublicKey, b, bound, rand.Reader)
				return err
			},
		)
		if err != nil {
			t.Fatal(err)
		}
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
	if _, err := AliceLessEq(conn, k, -1, 10, rand.Reader, nil); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := BobLessEq(conn, &k.RSAPublicKey, 11, 10, rand.Reader); err == nil {
		t.Error("out-of-bound value accepted")
	}
	if _, err := AliceLess(conn, k, 11, 10, rand.Reader, nil); err == nil {
		t.Error("out-of-bound value accepted by AliceLess")
	}
	if _, err := BobLess(conn, &k.RSAPublicKey, -2, 10, rand.Reader); err == nil {
		t.Error("negative value accepted by BobLess")
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
		var got bool
		err := transport.Run2(
			func(c transport.Conn) error {
				var err error
				got, err = AliceLessEq(c, k, a, bound, rand.Reader, nil)
				return err
			},
			func(c transport.Conn) error {
				_, err := BobLessEq(c, &k.RSAPublicKey, b, bound, rand.Reader)
				return err
			},
		)
		return err == nil && got == (a <= b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The communication pattern must match the paper's O(c2·n0) accounting:
// Alice's round-2 message carries exactly n0 residues mod a (N/2)-bit prime.
func TestYMPPCommunicationShape(t *testing.T) {
	k := testRSAKey(t)
	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	const n0 = 50
	err := transport.RunPair(ma, mb,
		func(c transport.Conn) error {
			_, err := AliceCompare(c, k, 25, n0, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			_, err := BobCompare(c, &k.RSAPublicKey, 25, n0, rand.Reader)
			return err
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Alice sends one message (p + n0 residues); Bob sends two (round 1,
	// result bit).
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
