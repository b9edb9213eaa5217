package paillier

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// testKey caches a key pair per size so the suite stays fast.
var (
	keyMu   sync.Mutex
	keyBySz = map[int]*PrivateKey{}
)

func testKey(t *testing.T, bits int) *PrivateKey {
	t.Helper()
	keyMu.Lock()
	defer keyMu.Unlock()
	if k, ok := keyBySz[bits]; ok {
		return k
	}
	k, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatalf("GenerateKey(%d): %v", bits, err)
	}
	keyBySz[bits] = k
	return k
}

func TestGenerateKeyRejectsSmall(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 64); err == nil {
		t.Error("want error for tiny key")
	}
}

func TestKeySize(t *testing.T) {
	k := testKey(t, 256)
	if got := k.Bits(); got < 255 || got > 256 {
		t.Errorf("modulus bits = %d, want ≈256", got)
	}
	if k.NSquared.Cmp(new(big.Int).Mul(k.N, k.N)) != 0 {
		t.Error("NSquared mismatch")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k := testKey(t, 256)
	for _, m := range []int64{0, 1, 2, 42, 1 << 40, -1, -99999} {
		c, err := k.Encrypt(rand.Reader, big.NewInt(m))
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := k.DecryptSigned(c)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", m, err)
		}
		if got.Int64() != m {
			t.Errorf("round trip %d -> %d", m, got.Int64())
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	k := testKey(t, 256)
	m := big.NewInt(7)
	c1, _ := k.Encrypt(rand.Reader, m)
	c2, _ := k.Encrypt(rand.Reader, m)
	if c1.Cmp(c2) == 0 {
		t.Error("two encryptions of the same plaintext are identical")
	}
}

func TestMessageRangeEnforced(t *testing.T) {
	k := testKey(t, 256)
	tooBig := new(big.Int).Rsh(k.N, 1) // exactly n/2
	if _, err := k.Encrypt(rand.Reader, tooBig); !errors.Is(err, ErrMessageRange) {
		t.Errorf("Encrypt(n/2) err = %v, want ErrMessageRange", err)
	}
	neg := new(big.Int).Neg(tooBig)
	if _, err := k.Encrypt(rand.Reader, neg); !errors.Is(err, ErrMessageRange) {
		t.Errorf("Encrypt(-n/2) err = %v, want ErrMessageRange", err)
	}
	ok := new(big.Int).Sub(tooBig, big.NewInt(1))
	if _, err := k.Encrypt(rand.Reader, ok); err != nil {
		t.Errorf("Encrypt(n/2-1) err = %v, want nil", err)
	}
}

func TestCiphertextRangeEnforced(t *testing.T) {
	k := testKey(t, 256)
	if _, err := k.Decrypt(new(big.Int).Neg(big.NewInt(1))); !errors.Is(err, ErrCiphertextRange) {
		t.Errorf("Decrypt(-1) err = %v", err)
	}
	if _, err := k.Decrypt(new(big.Int).Set(k.NSquared)); !errors.Is(err, ErrCiphertextRange) {
		t.Errorf("Decrypt(n²) err = %v", err)
	}
}

func TestHomomorphicAdd(t *testing.T) {
	k := testKey(t, 256)
	c1, _ := k.Encrypt(rand.Reader, big.NewInt(1234))
	c2, _ := k.Encrypt(rand.Reader, big.NewInt(-234))
	sum, err := k.Add(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.DecryptSigned(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 1000 {
		t.Errorf("D(E(1234)·E(-234)) = %v, want 1000", got)
	}
}

// TestHomomorphicAddPlain: a plaintext is added to a ciphertext as a
// product with its unblinded encryption, as the enhanced protocol adds its
// selection shift.
func TestHomomorphicAddPlain(t *testing.T) {
	k := testKey(t, 256)
	c, _ := k.Encrypt(rand.Reader, big.NewInt(50))
	g, err := k.Unblinded(big.NewInt(-75))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := k.Add(c, g)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := k.DecryptSigned(c2)
	if got.Int64() != -25 {
		t.Errorf("E(50)·g^-75 decrypts to %v, want -25", got)
	}
}

func TestHomomorphicMul(t *testing.T) {
	k := testKey(t, 256)
	cases := []struct{ m, s, want int64 }{
		{7, 6, 42},
		{7, -6, -42},
		{-7, 6, -42},
		{-7, -6, 42},
		{5, 0, 0},
		{0, 12345, 0},
	}
	for _, tc := range cases {
		c, _ := k.Encrypt(rand.Reader, big.NewInt(tc.m))
		cs, err := k.Mul(c, big.NewInt(tc.s))
		if err != nil {
			t.Fatalf("Mul(%d,%d): %v", tc.m, tc.s, err)
		}
		got, _ := k.DecryptSigned(cs)
		if got.Int64() != tc.want {
			t.Errorf("D(E(%d)^%d) = %v, want %d", tc.m, tc.s, got, tc.want)
		}
	}
}

func TestPaperHomomorphicProperties(t *testing.T) {
	// The exact identities quoted in §3.7:
	//   D(E(m1,r1)·E(m2,r2) mod n²) = m1+m2 mod n
	//   D(E(m1,r1)^m2 mod n²)       = m1·m2 mod n
	k := testKey(t, 256)
	m1, m2 := big.NewInt(31415), big.NewInt(27182)
	c1, _ := k.Encrypt(rand.Reader, m1)
	prod, _ := k.Mul(c1, m2)
	got, _ := k.Decrypt(prod)
	want := new(big.Int).Mul(m1, m2)
	want.Mod(want, k.N)
	if got.Cmp(want) != 0 {
		t.Errorf("multiplicative identity: got %v want %v", got, want)
	}
}

func TestCRTDecryptMatchesSlowPath(t *testing.T) {
	k := testKey(t, 256)
	for i := 0; i < 20; i++ {
		m, err := rand.Int(rand.Reader, k.PlaintextBound())
		if err != nil {
			t.Fatal(err)
		}
		c, _ := k.Encrypt(rand.Reader, m)
		fast, err := k.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		slow := k.decryptSlow(c)
		if fast.Cmp(slow) != 0 {
			t.Fatalf("CRT decrypt %v != slow decrypt %v for m=%v", fast, slow, m)
		}
	}
}

// crtH is the exponentiation formula for a CRT decryption constant,
// L_r(g^{r−1} mod r²)⁻¹ mod r for the prime factor r and g = n+1: the
// oracle for the closed forms GenerateKey stores.
func crtH(n, r, rSquared *big.Int) *big.Int {
	rm1 := new(big.Int).Sub(r, one)
	g := new(big.Int).Add(n, one)
	u := new(big.Int).Exp(g, rm1, rSquared)
	l := lFunc(u, r)
	return new(big.Int).ModInverse(l, r)
}

// TestCRTConstantsMatchExpFormula checks hp = p − q⁻¹ mod p and
// hq = q − p⁻¹ mod q against crtH over many fresh keys at 256, 512 and
// 1024 bits, and CRT decryption against textbook decryption on each.
func TestCRTConstantsMatchExpFormula(t *testing.T) {
	for _, tc := range []struct{ bits, keys int }{{256, 60}, {512, 25}, {1024, 8}} {
		keys := tc.keys
		if testing.Short() {
			keys = 2
		}
		for i := 0; i < keys; i++ {
			k, err := GenerateKey(rand.Reader, tc.bits)
			if err != nil {
				t.Fatal(err)
			}
			if hp := crtH(k.N, k.p, k.pSquared); hp == nil || hp.Cmp(k.hp) != 0 {
				t.Fatalf("%d-bit key %d: hp = %v, Exp formula gives %v", tc.bits, i, k.hp, hp)
			}
			if hq := crtH(k.N, k.q, k.qSquared); hq == nil || hq.Cmp(k.hq) != 0 {
				t.Fatalf("%d-bit key %d: hq = %v, Exp formula gives %v", tc.bits, i, k.hq, hq)
			}
			m, err := rand.Int(rand.Reader, k.PlaintextBound())
			if err != nil {
				t.Fatal(err)
			}
			c, err := k.Encrypt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Decrypt(c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(m) != 0 || got.Cmp(k.decryptSlow(c)) != 0 {
				t.Fatalf("%d-bit key %d: Decrypt = %v, want %v", tc.bits, i, got, m)
			}
		}
	}
}

// nonceOf strips g^m off a ciphertext of m: c·(1 − m·n) mod n², because
// (1 + m·n)(1 − m·n) ≡ 1 (mod n²).
func nonceOf(k *PrivateKey, c, m *big.Int) *big.Int {
	y := new(big.Int).Mul(m, k.N)
	y.Sub(one, y)
	y.Mul(y, c)
	return y.Mod(y, k.NSquared)
}

// TestOwnerEncryptIsPaillier: a ciphertext made with the owner's CRT
// nonce is an ordinary Paillier ciphertext — CRT and textbook decryption
// agree on it, its nonce part is an n-th residue (y^λ ≡ 1 mod n²), and
// the nonce is fresh per call.
func TestOwnerEncryptIsPaillier(t *testing.T) {
	k := testKey(t, 256)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		m, err := rand.Int(rand.Reader, k.PlaintextBound())
		if err != nil {
			t.Fatal(err)
		}
		var c *big.Int
		if i%2 == 0 {
			c, err = k.Encrypt(rand.Reader, m)
		} else {
			var cs []*big.Int
			if cs, err = k.EncryptBatch(nil, rand.Reader, []*big.Int{m}); err == nil {
				c = cs[0]
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		fast, err := k.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if slow := k.decryptSlow(c); fast.Cmp(m) != 0 || slow.Cmp(m) != 0 {
			t.Fatalf("owner ciphertext of %v decrypts to %v (CRT), %v (textbook)", m, fast, slow)
		}
		y := nonceOf(k, c, m)
		if new(big.Int).Exp(y, k.Lambda, k.NSquared).Cmp(one) != 0 {
			t.Fatalf("owner nonce %v is not an n-th residue", y)
		}
		if seen[y.String()] {
			t.Fatalf("owner nonce %v repeated", y)
		}
		seen[y.String()] = true
	}
}

// TestOwnerAndPublicCiphertextsMix: the two encryption paths produce
// elements of one group, so the homomorphic operations take them in any
// combination.
func TestOwnerAndPublicCiphertextsMix(t *testing.T) {
	k := testKey(t, 256)
	pub, err := UnmarshalPublicKey(MarshalPublicKey(&k.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	own, err := k.Encrypt(rand.Reader, big.NewInt(-300))
	if err != nil {
		t.Fatal(err)
	}
	peer, err := pub.Encrypt(rand.Reader, big.NewInt(41))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := pub.Add(own, peer)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := pub.Mul(sum, big.NewInt(-7))
	if err != nil {
		t.Fatal(err)
	}
	again, err := pub.Randomize(rand.Reader, scaled)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *big.Int
		want int64
	}{{"Add", sum, -259}, {"Mul", scaled, 1813}, {"Randomize", again, 1813}} {
		got, err := k.DecryptSigned(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != tc.want {
			t.Errorf("%s over mixed ciphertexts = %v, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRandomizePreservesPlaintext(t *testing.T) {
	k := testKey(t, 256)
	c, _ := k.Encrypt(rand.Reader, big.NewInt(888))
	c2, err := k.Randomize(rand.Reader, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cmp(c2) == 0 {
		t.Error("Randomize returned identical ciphertext")
	}
	got, _ := k.DecryptSigned(c2)
	if got.Int64() != 888 {
		t.Errorf("randomized plaintext = %v", got)
	}
}

func TestEncryptWithNonceDeterministic(t *testing.T) {
	k := testKey(t, 256)
	r := big.NewInt(12345)
	c1, err := k.EncryptWithNonce(big.NewInt(9), r)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := k.EncryptWithNonce(big.NewInt(9), r)
	if c1.Cmp(c2) != 0 {
		t.Error("same nonce must give same ciphertext")
	}
	if _, err := k.EncryptWithNonce(big.NewInt(9), new(big.Int)); err == nil {
		t.Error("nonce 0 must be rejected")
	}
	if _, err := k.EncryptWithNonce(big.NewInt(9), k.N); err == nil {
		t.Error("nonce = n must be rejected")
	}
}

// trapReader records that somebody asked it for randomness.
type trapReader struct{ reads int }

func (r *trapReader) Read([]byte) (int, error) {
	r.reads++
	return 0, errors.New("paillier test: randomness was read")
}

// TestUnblindedIsEncryptionWithUnitNonce: Unblinded(m) is the ciphertext
// Encrypt would produce under the nonce r = 1 — it decrypts to m over the
// whole signed range, refuses what Encrypt refuses, and draws no
// randomness: it takes no reader, and a reader that fails on Read,
// installed as the process default (what a nil reader falls back to)
// around every call, is never touched. No test of this package runs in
// parallel, so swapping the default is safe.
func TestUnblindedIsEncryptionWithUnitNonce(t *testing.T) {
	k := testKey(t, 256)
	trap := &trapReader{}
	unblinded := func(m *big.Int) (*big.Int, error) {
		defer func(r io.Reader) { rand.Reader = r }(rand.Reader)
		rand.Reader = trap
		return k.PublicKey.Unblinded(m)
	}
	top := new(big.Int).Sub(k.PlaintextBound(), one) // largest |m| in range
	for _, m := range []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(1 << 50), big.NewInt(-(1 << 50)),
		top, new(big.Int).Neg(top),
	} {
		got, err := unblinded(m)
		if err != nil {
			t.Fatalf("Unblinded(%v): %v", m, err)
		}
		want, err := k.EncryptWithNonce(m, one)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("Unblinded(%v) = %v, want EncryptWithNonce(m, 1) = %v", m, got, want)
		}
		if dec, err := k.DecryptSigned(got); err != nil || dec.Cmp(m) != 0 {
			t.Errorf("Unblinded(%v) decrypts to %v (%v)", m, dec, err)
		}
	}
	for _, m := range []*big.Int{k.PlaintextBound(), new(big.Int).Neg(k.PlaintextBound()), k.N} {
		_, encErr := k.PublicKey.Encrypt(rand.Reader, m)
		_, err := unblinded(m)
		if !errors.Is(encErr, ErrMessageRange) || !errors.Is(err, ErrMessageRange) {
			t.Errorf("m = %v: Encrypt error %v, Unblinded error %v, want ErrMessageRange from both", m, encErr, err)
		}
	}
	if trap.reads != 0 {
		t.Errorf("Unblinded read the random source %d times", trap.reads)
	}
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	k := testKey(t, 256)
	b := MarshalPublicKey(&k.PublicKey)
	pk, err := UnmarshalPublicKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if pk.N.Cmp(k.N) != 0 {
		t.Error("modulus mismatch after round trip")
	}
	// Encrypt under the unmarshaled key; decrypt with the original.
	c, err := pk.Encrypt(rand.Reader, big.NewInt(-4321))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := k.DecryptSigned(c)
	if got.Int64() != -4321 {
		t.Errorf("cross-key round trip = %v", got)
	}
}

// TestUnmarshalPublicKeyRejects: a peer's modulus must be at least
// MinKeyBits, at most MaxKeyBits (checked on the encoding, before anything
// is squared) and odd.
func TestUnmarshalPublicKeyRejects(t *testing.T) {
	k := testKey(t, 256)
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"tiny", big.NewInt(12345).Bytes()},
		{"empty", nil},
		{"even", new(big.Int).Lsh(k.N, 1).Bytes()},
		{"oversized", bytes.Repeat([]byte{0xff}, MaxKeyBits/8+1)},
		{"frame-sized", bytes.Repeat([]byte{0xff}, 16<<20)},
	} {
		if _, err := UnmarshalPublicKey(tc.b); !errors.Is(err, ErrPublicKey) {
			t.Errorf("%s: error = %v, want ErrPublicKey", tc.name, err)
		}
	}
	largest := bytes.Repeat([]byte{0xff}, MaxKeyBits/8)
	if _, err := UnmarshalPublicKey(largest); err != nil {
		t.Errorf("an odd %d-bit modulus must be accepted: %v", MaxKeyBits, err)
	}
}

func TestSignedEncodeDecode(t *testing.T) {
	k := testKey(t, 256)
	for _, m := range []int64{0, 1, -1, 1 << 50, -(1 << 50)} {
		enc, err := k.Encode(big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		if enc.Sign() < 0 || enc.Cmp(k.N) >= 0 {
			t.Errorf("Encode(%d) = %v outside Z_n", m, enc)
		}
		if got := k.DecodeSigned(enc); got.Int64() != m {
			t.Errorf("decode(encode(%d)) = %v", m, got)
		}
	}
}

// Property: for random signed pairs within bounds, addition and scalar
// multiplication identities hold exactly.
func TestHomomorphicProperty(t *testing.T) {
	k := testKey(t, 256)
	f := func(a, b int32) bool {
		ma, mb := big.NewInt(int64(a)), big.NewInt(int64(b))
		ca, err1 := k.Encrypt(rand.Reader, ma)
		cb, err2 := k.Encrypt(rand.Reader, mb)
		if err1 != nil || err2 != nil {
			return false
		}
		sum, err := k.Add(ca, cb)
		if err != nil {
			return false
		}
		gotSum, err := k.DecryptSigned(sum)
		if err != nil || gotSum.Int64() != int64(a)+int64(b) {
			return false
		}
		prod, err := k.Mul(ca, mb)
		if err != nil {
			return false
		}
		gotProd, err := k.DecryptSigned(prod)
		return err == nil && gotProd.Int64() == int64(a)*int64(b)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
