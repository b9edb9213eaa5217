package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
)

// perSlotFold is the fold as the packed protocols wrote it before
// SlotFold: one Mul by the shifted scalar and one Add per term. It is the
// reference the kernel is checked against, and lives only here.
func perSlotFold(pk *PublicKey, init *big.Int, width uint, slots [][]SlotTerm) (*big.Int, error) {
	acc := init
	for s, terms := range slots {
		for _, t := range terms {
			term, err := pk.Mul(t.Base, new(big.Int).Lsh(t.Scalar, width*uint(s)))
			if err != nil {
				return nil, err
			}
			if acc, err = pk.Add(acc, term); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

func randomCiphertext(t testing.TB, k *PrivateKey) *big.Int {
	t.Helper()
	m, err := rand.Int(rand.Reader, k.PlaintextBound())
	if err != nil {
		t.Fatal(err)
	}
	c, err := k.PublicKey.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSlotFoldMatchesPerSlotProduct is the differential test: over random
// slot counts, widths, signs, zero scalars, empty slots, several terms per
// slot (the dot-many shape), repeated bases (the grouped-uplink shape) and
// scalars wider than their slot, the kernel returns the very residue the
// per-slot product does.
func TestSlotFoldMatchesPerSlotProduct(t *testing.T) {
	k := testKey(t, 256)
	pk := &k.PublicKey
	rng := mrand.New(mrand.NewSource(14))
	pool := make([]*big.Int, 6)
	for i := range pool {
		pool[i] = randomCiphertext(t, k)
	}
	for round := 0; round < 60; round++ {
		nSlots := 1 + rng.Intn(24)
		width := uint(1 + rng.Intn(64))
		scalarBits := int(width)
		if round%7 == 0 {
			scalarBits += 1 + rng.Intn(70) // overflows into the next slots
		}
		signs := round % 3 // all negative, all positive, mixed
		slots := make([][]SlotTerm, nSlots)
		for s := range slots {
			nTerms := 1
			if round%4 == 0 {
				nTerms = rng.Intn(4) // dot-many; 0 leaves the slot empty
			}
			for i := 0; i < nTerms; i++ {
				scalar := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(1+rng.Intn(scalarBits))))
				if signs == 0 || signs == 2 && rng.Intn(2) == 0 {
					scalar.Neg(scalar)
				}
				if rng.Intn(8) == 0 {
					scalar.SetInt64(0)
				}
				base := pool[rng.Intn(len(pool))]
				if round%5 == 0 {
					base = randomCiphertext(t, k)
				}
				slots[s] = append(slots[s], SlotTerm{Base: base, Scalar: scalar})
			}
		}
		init := randomCiphertext(t, k)
		want, err := perSlotFold(pk, init, width, slots)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pk.SlotFold(init, width, slots)
		if err != nil {
			t.Fatalf("round %d (S=%d w=%d): %v", round, nSlots, width, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("round %d (S=%d w=%d): kernel and per-slot product differ", round, nSlots, width)
		}
	}
}

// TestSlotFoldPlacesSlots checks the plaintext meaning once, end to end:
// slot s of the result holds Σ_t m_t·k_t on top of init's plaintext.
func TestSlotFoldPlacesSlots(t *testing.T) {
	k := testKey(t, 256)
	const width = 40
	ms := []int64{5, -9, 0, 12}
	ks := []int64{-3, 7, 11, 1 << 20}
	slots := make([][]SlotTerm, len(ms))
	want := big.NewInt(1000)
	for s := range ms {
		c, err := k.Encrypt(rand.Reader, big.NewInt(ms[s]))
		if err != nil {
			t.Fatal(err)
		}
		slots[s] = []SlotTerm{{Base: c, Scalar: big.NewInt(ks[s])}}
		want.Add(want, new(big.Int).Lsh(big.NewInt(ms[s]*ks[s]), uint(width*s)))
	}
	init, err := k.Encrypt(rand.Reader, big.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	folded, err := k.SlotFold(init, width, slots)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.DecryptSigned(folded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("folded plaintext = %v, want %v", got, want)
	}
	// Nothing to fold: init comes back, as a copy.
	same, err := k.SlotFold(init, width, nil)
	if err != nil || same.Cmp(init) != 0 || same == init {
		t.Fatalf("empty fold = %v, %v; want a copy of init", same, err)
	}
}

// TestSlotFoldRejects: a base that is no unit mod n² under a negative
// scalar — alone or among good ones — is ErrNotInvertible, never a nil
// inverse; range and width violations are errors too.
func TestSlotFoldRejects(t *testing.T) {
	k := testKey(t, 256)
	pk := &k.PublicKey
	good := randomCiphertext(t, k)
	nonUnit := new(big.Int).Mul(k.p, big.NewInt(12345)) // p·k
	neg, pos := big.NewInt(-5), big.NewInt(5)
	for _, tc := range []struct {
		name  string
		slots [][]SlotTerm
		want  error
	}{
		{"non-unit alone", [][]SlotTerm{{{nonUnit, neg}}}, ErrNotInvertible},
		{"non-unit among units", [][]SlotTerm{{{good, neg}}, {{nonUnit, neg}, {good, pos}}, {{good, neg}}}, ErrNotInvertible},
		{"zero base", [][]SlotTerm{{{new(big.Int), neg}}}, ErrNotInvertible},
		{"base ≥ n²", [][]SlotTerm{{{k.NSquared, pos}}}, ErrCiphertextRange},
		{"negative base", [][]SlotTerm{{{big.NewInt(-1), pos}}}, ErrCiphertextRange},
	} {
		if _, err := pk.SlotFold(good, 16, tc.slots); !errors.Is(err, tc.want) {
			t.Errorf("%s: error = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := pk.SlotFold(k.NSquared, 16, nil); !errors.Is(err, ErrCiphertextRange) {
		t.Errorf("init ≥ n²: error = %v, want ErrCiphertextRange", err)
	}
	if _, err := pk.SlotFold(good, 0, [][]SlotTerm{{{good, pos}}}); err == nil {
		t.Error("width 0 must be rejected")
	}
	// The inputs survive a fold: bases are inverted on copies.
	before := new(big.Int).Set(good)
	if _, err := pk.SlotFold(good, 16, [][]SlotTerm{{{good, neg}}, {{good, neg}}}); err != nil {
		t.Fatal(err)
	}
	if good.Cmp(before) != 0 {
		t.Error("SlotFold modified a caller's base")
	}
}
