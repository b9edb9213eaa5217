package yao

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"repro/internal/transport"
)

// runYMPPBatch executes one batched protocol in-process and returns both
// parties' conclusions.
func runYMPPBatch(t *testing.T, is, js []int64, n0 int64) (aliceGot, bobGot []bool, err error) {
	t.Helper()
	k := testRSAKey(t)
	err = transport.Run2(
		func(c transport.Conn) error {
			var err error
			aliceGot, err = AliceCompareBatch(c, k, is, n0, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			var err error
			bobGot, err = BobCompareBatch(c, &k.RSAPublicKey, js, n0, rand.Reader)
			return err
		},
	)
	return aliceGot, bobGot, err
}

// TestYMPPBatchMatchesPerInstance: every (i, j) of a small domain in one
// batch gives both parties what a batch of one per pair gives, which is
// i < j.
func TestYMPPBatchMatchesPerInstance(t *testing.T) {
	const n0 = 6
	var is, js []int64
	for i := int64(1); i <= n0; i++ {
		for j := int64(1); j <= n0; j++ {
			is, js = append(is, i), append(js, j)
		}
	}
	aGot, bGot, err := runYMPPBatch(t, is, js, n0)
	if err != nil {
		t.Fatal(err)
	}
	if len(aGot) != len(is) || len(bGot) != len(is) {
		t.Fatalf("%d and %d results for %d instances", len(aGot), len(bGot), len(is))
	}
	for x := range is {
		a, b := runYMPP(t, is[x], js[x], n0)
		if a != b || a != (is[x] < js[x]) {
			t.Fatalf("per-instance YMPP(%d, %d) = (%v, %v)", is[x], js[x], a, b)
		}
		if aGot[x] != a || bGot[x] != b {
			t.Errorf("batch[%d] (i=%d, j=%d) = (%v, %v), per-instance protocol says %v", x, is[x], js[x], aGot[x], bGot[x], a)
		}
	}
}

func TestYMPPBatchMismatchDetected(t *testing.T) {
	if _, _, err := runYMPPBatch(t, []int64{1, 2, 3}, []int64{1, 2}, 5); !errors.Is(err, ErrDomainMismatch) {
		t.Errorf("alice holds 3 values, bob 2: err = %v, want ErrDomainMismatch", err)
	}
	k := testRSAKey(t)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := AliceCompareBatch(c, k, []int64{1, 2}, 5, rand.Reader, nil)
			return err
		},
		func(c transport.Conn) error {
			_, err := BobCompareBatch(c, &k.RSAPublicKey, []int64{1, 2}, 6, rand.Reader)
			return err
		},
	)
	if !errors.Is(err, ErrDomainMismatch) {
		t.Errorf("n0 = 5 against n0 = 6: err = %v, want ErrDomainMismatch", err)
	}
	if a, b, err := runYMPPBatch(t, nil, nil, 5); err != nil || a != nil || b != nil {
		t.Errorf("empty batch = (%v, %v, %v), want no traffic and no results", a, b, err)
	}
}

// TestBobRejectsHostileRound2 scripts an Alice whose round-2 message is
// not one Algorithm 1 can produce. Bob must refuse it with a typed error
// before computing with it, in a batch of one and in a batch of two (where
// the bad instance is the second); the unmodified script, a prime of
// |N|/2 bits over reduced residues, must be accepted.
func TestBobRejectsHostileRound2(t *testing.T) {
	k := testRSAKey(t)
	const n0 = 5
	half := k.N.BitLen() / 2
	p, err := rand.Prime(rand.Reader, half)
	if err != nil {
		t.Fatal(err)
	}
	honest := func() []*big.Int {
		ws := make([]*big.Int, n0)
		for u := range ws {
			ws[u] = big.NewInt(int64(1000 + 3*u))
		}
		return ws
	}
	with := func(u int, w *big.Int) []*big.Int {
		ws := honest()
		ws[u] = w
		return ws
	}
	for _, tc := range []struct {
		name string
		p    *big.Int
		ws   []*big.Int
		want error
	}{
		{"honest", p, honest(), nil},
		{"largest residue", p, with(n0-1, new(big.Int).Sub(p, one)), nil},
		{"oversized p", new(big.Int).Lsh(p, 1), honest(), ErrResidues},
		{"p as wide as N", k.N, honest(), ErrResidues},
		{"undersized p", new(big.Int).Rsh(p, 1), honest(), ErrResidues},
		{"p = 1", one, honest(), ErrResidues},
		{"p = 0", new(big.Int), honest(), ErrResidues},
		{"negative p", new(big.Int).Neg(p), honest(), ErrResidues},
		{"w = p", p, with(2, p), ErrResidues},
		{"w > p", p, with(0, new(big.Int).Lsh(p, 40)), ErrResidues},
		{"negative w", p, with(n0-1, big.NewInt(-1)), ErrResidues},
		{"short ws", p, honest()[:n0-1], ErrDomainMismatch},
		{"long ws", p, append(honest(), one), ErrDomainMismatch},
		{"no ws", p, nil, ErrDomainMismatch},
	} {
		check := func(form string, err error) {
			t.Helper()
			if tc.want == nil && err != nil {
				t.Errorf("%s, %s: bob refused a well-formed round 2: %v", tc.name, form, err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("%s, %s: err = %v, want %v", tc.name, form, err, tc.want)
			}
		}
		// script plays Alice: read round 1, send the scripted round 2, wait
		// for Bob's verdict or his hang-up.
		script := func(round2 *transport.Builder) func(transport.Conn) error {
			return func(c transport.Conn) error {
				if _, err := transport.RecvMsg(c); err != nil {
					return err
				}
				if err := transport.SendMsg(c, round2); err != nil {
					return err
				}
				_, _ = transport.RecvMsg(c)
				return nil
			}
		}
		check("batch of one", transport.Run2(
			script(transport.NewBuilder().PutBig(tc.p).PutBigs(tc.ws)),
			func(c transport.Conn) error {
				_, err := BobCompareBatch(c, &k.RSAPublicKey, []int64{3}, n0, rand.Reader)
				return err
			}))
		check("batch", transport.Run2(
			script(transport.NewBuilder().PutBig(p).PutBigs(honest()).PutBig(tc.p).PutBigs(tc.ws)),
			func(c transport.Conn) error {
				_, err := BobCompareBatch(c, &k.RSAPublicKey, []int64{2, 3}, n0, rand.Reader)
				return err
			}))
	}
}
