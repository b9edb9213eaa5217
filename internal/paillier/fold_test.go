package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"sync"
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

// TestSlotFoldMatchesPerSlotProduct is the differential test: over keys
// whose n² spans 8, 10, 16 and 32 words (each also rebuilt from its
// wire form, so both constructors' Montgomery constants are used),
// random slot counts, widths, signs, zero scalars, empty slots, 1–20
// terms per slot (the dot-many and comparison-reply shapes), scalars of
// up to 100 bits on both sides of the group-size rule and wider than
// their slot, repeated bases (the grouped-uplink shape) and non-unit
// bases under positive scalars, the kernel returns the very residue the
// per-slot product does.
func TestSlotFoldMatchesPerSlotProduct(t *testing.T) {
	rng := mrand.New(mrand.NewSource(14))
	for _, tc := range []struct{ bits, rounds, maxSlots int }{
		{256, 60, 24}, {320, 40, 24}, {512, 24, 8}, {1024, 12, 4},
	} {
		k := testKey(t, tc.bits)
		rebuilt, err := UnmarshalPublicKey(MarshalPublicKey(&k.PublicKey))
		if err != nil {
			t.Fatal(err)
		}
		pool := make([]*big.Int, 6)
		for i := range pool {
			pool[i] = randomCiphertext(t, k)
		}
		nonUnit := new(big.Int).Mul(k.q, pool[0]) // a multiple of q below n²
		nonUnit.Mod(nonUnit, k.NSquared)
		for round := 0; round < tc.rounds; round++ {
			pk := &k.PublicKey
			if round%2 == 1 {
				pk = rebuilt
			}
			slots, init := randomFold(t, rng, k, pool, nonUnit, round, tc.maxSlots)
			want, err := perSlotFold(pk, init, slots.width, slots.terms)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pk.SlotFold(init, slots.width, slots.terms)
			if err != nil {
				t.Fatalf("%d bits, round %d (S=%d w=%d): %v", tc.bits, round, len(slots.terms), slots.width, err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%d bits, round %d (S=%d w=%d): kernel and per-slot product differ", tc.bits, round, len(slots.terms), slots.width)
			}
		}
	}
}

// foldInput is one SlotFold's slots and width.
type foldInput struct {
	terms [][]SlotTerm
	width uint
}

// randomFold draws round's fold input over k and its init. Rounds take
// turns at scalars below the 16 bits at which SlotFold starts grouping
// its terms and at scalars of 16 to 100 bits, at signs (all negative,
// all positive, mixed), at a few terms per slot or 1–20, and at bases
// from pool (so repeated) or fresh; a non-unit base joins some rounds
// under a positive scalar, the only sign it has a fold under.
func randomFold(t *testing.T, rng *mrand.Rand, k *PrivateKey, pool []*big.Int, nonUnit *big.Int, round, maxSlots int) (foldInput, *big.Int) {
	t.Helper()
	nSlots := 1 + rng.Intn(maxSlots)
	width := uint(1 + rng.Intn(64))
	scalarBits := 1 + rng.Intn(15)
	if round%2 == 0 {
		scalarBits = 16 + rng.Intn(85)
	}
	signs := round % 3 // all negative, all positive, mixed
	slots := make([][]SlotTerm, nSlots)
	for s := range slots {
		nTerms := rng.Intn(4) // 0 leaves the slot empty
		if round%4 < 2 {
			nTerms = 1 + rng.Intn(20)
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
			if scalar.Sign() > 0 && round%6 == 1 && rng.Intn(4) == 0 {
				base = nonUnit
			}
			slots[s] = append(slots[s], SlotTerm{Base: base, Scalar: scalar})
		}
	}
	return foldInput{slots, width}, randomCiphertext(t, k)
}

// TestSlotFoldConcurrent folds from several goroutines at once, on two
// keys of different sizes whose folds share the pooled scratch, and
// checks every result against the per-slot product.
func TestSlotFoldConcurrent(t *testing.T) {
	rng := mrand.New(mrand.NewSource(34))
	type job struct {
		pk   *PublicKey
		in   foldInput
		init *big.Int
		want *big.Int
	}
	var jobs []job
	for _, bits := range []int{256, 512} {
		k := testKey(t, bits)
		pool := make([]*big.Int, 4)
		for i := range pool {
			pool[i] = randomCiphertext(t, k)
		}
		nonUnit := new(big.Int).Mul(k.p, pool[0])
		nonUnit.Mod(nonUnit, k.NSquared)
		for round := 0; round < 6; round++ {
			in, init := randomFold(t, rng, k, pool, nonUnit, round, 4)
			want, err := perSlotFold(&k.PublicKey, init, in.width, in.terms)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{&k.PublicKey, in, init, want})
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+w)%len(jobs)]
				got, err := j.pk.SlotFold(j.init, j.in.width, j.in.terms)
				if err != nil {
					t.Errorf("worker %d, job %d: %v", w, (i+w)%len(jobs), err)
					return
				}
				if got.Cmp(j.want) != 0 {
					t.Errorf("worker %d, job %d: kernel and per-slot product differ", w, (i+w)%len(jobs))
				}
			}
		}(w)
	}
	wg.Wait()
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
// inverse; range and width violations are errors too. CheckUnits, the
// batched check a fold without negative scalars is guarded by, refuses
// the same bases with the same errors.
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
		// CheckUnits gives the fold's verdict on the same bases whatever
		// their scalars' signs.
		var bases []*big.Int
		for _, terms := range tc.slots {
			for _, term := range terms {
				bases = append(bases, term.Base)
			}
		}
		if err := pk.CheckUnits(bases); !errors.Is(err, tc.want) {
			t.Errorf("%s: CheckUnits error = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := pk.CheckUnits([]*big.Int{good, randomCiphertext(t, k)}); err != nil {
		t.Errorf("CheckUnits refuses two encryptions: %v", err)
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
