package compare

import (
	"math/big"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// TestEdgeSequentialAndCount holds every batch entry point to the round
// structure and the instance count its Edge sets: each party's Count
// reads the batch length, a batch costs 3 frames, and under Sequential a
// batch of k costs 3·k — with the same decisions — for YMPP, the masked
// engine, its grouped uplink and its derived batches.
func TestEdgeSequentialAndCount(t *testing.T) {
	const bound = 20
	rk, pk := keys(t)
	as := []int64{3, 3, 0, 20, 7, 7, 12}
	bs := []int64{3, 2, 20, 0, 9, 6, 12}
	rows := []int{0, 0, 0, 1, 1, 2, 2} // equal operands within a row: the grouped uplink dedups them
	// bases are the derived batches' E(−a_t) under Alice's key.
	bases := make([]*big.Int, len(as))
	for i, a := range as {
		ct, err := pk.Encrypt(nil, big.NewInt(a))
		if err != nil {
			t.Fatal(err)
		}
		if bases[i], err = pk.PublicKey.Mul(ct, big.NewInt(-1)); err != nil {
			t.Fatal(err)
		}
	}
	base := func(t int) (*big.Int, error) { return bases[t], nil }

	type leg struct {
		name    string
		kind    EngineKind
		uplink  bool
		alice   func(Alice, transport.Conn) ([]bool, error)
		bob     func(Bob, transport.Conn) ([]bool, error)
		strict  bool
		grouped bool // batched, the uplink must dedup: fewer ciphertexts than instances
	}
	legs := []leg{
		{name: "ympp", kind: EngineYMPP,
			alice: func(a Alice, c transport.Conn) ([]bool, error) { return a.BatchLessEq(c, as) },
			bob:   func(b Bob, c transport.Conn) ([]bool, error) { return b.BatchLessEq(c, bs) }},
		{name: "ympp/rows", kind: EngineYMPP, strict: true,
			alice: func(a Alice, c transport.Conn) ([]bool, error) { return a.BatchLessRows(c, as, rows) },
			bob:   func(b Bob, c transport.Conn) ([]bool, error) { return b.BatchLess(c, bs) }},
		{name: "masked", kind: EngineMasked,
			alice: func(a Alice, c transport.Conn) ([]bool, error) { return a.BatchLessEq(c, as) },
			bob:   func(b Bob, c transport.Conn) ([]bool, error) { return b.BatchLessEq(c, bs) }},
		{name: "masked/grouped", kind: EngineMasked, uplink: true, strict: true, grouped: true,
			alice: func(a Alice, c transport.Conn) ([]bool, error) { return a.BatchLessRows(c, as, rows) },
			bob:   func(b Bob, c transport.Conn) ([]bool, error) { return b.BatchLess(c, bs) }},
		{name: "masked/derived", kind: EngineMasked, uplink: true,
			alice: func(a Alice, c transport.Conn) ([]bool, error) {
				return a.(DerivedAlice).BatchLessEqDerived(c, as)
			},
			bob: func(b Bob, c transport.Conn) ([]bool, error) {
				return b.(DerivedBob).BatchLessEqDerived(c, bs, base)
			}},
	}
	for _, l := range legs {
		for _, seq := range []bool{false, true} {
			name := l.name + "/batched"
			if seq {
				name = l.name + "/sequential"
			}
			t.Run(name, func(t *testing.T) {
				var countA, countB, up atomic.Int64
				aliceEdge := Edge{Kind: l.kind, MaskBits: 32, Packed: true, Uplink: l.uplink,
					Key: pk, RSAKey: rk, Up: &up, Sequential: seq, Count: &countA}
				bobEdge := Edge{Kind: l.kind, MaskBits: 32, Packed: true, Uplink: l.uplink,
					Pub: &pk.PublicKey, RSAPub: &rk.RSAPublicKey, Sequential: seq, Count: &countB}
				ae, _, err := aliceEdge.Engines(bound)
				if err != nil {
					t.Fatal(err)
				}
				_, be, err := bobEdge.Engines(bound)
				if err != nil {
					t.Fatal(err)
				}
				ca, cb := transport.Pipe()
				ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
				var gotA, gotB []bool
				err = transport.RunPair(ma, mb,
					func(transport.Conn) (err error) { gotA, err = l.alice(ae, ma); return },
					func(transport.Conn) (err error) { gotB, err = l.bob(be, mb); return })
				if err != nil {
					t.Fatal(err)
				}
				if len(gotA) != len(as) || len(gotB) != len(as) {
					t.Fatalf("%d and %d decisions for %d instances", len(gotA), len(gotB), len(as))
				}
				for i := range as {
					want := as[i] <= bs[i]
					if l.strict {
						want = as[i] < bs[i]
					}
					if gotA[i] != want || gotB[i] != want {
						t.Errorf("instance %d (%d, %d): (%v, %v), want %v", i, as[i], bs[i], gotA[i], gotB[i], want)
					}
				}
				if countA.Load() != int64(len(as)) || countB.Load() != int64(len(as)) {
					t.Errorf("counted %d and %d instances, want %d each", countA.Load(), countB.Load(), len(as))
				}
				frames, want := ma.Stats().MessagesSent+mb.Stats().MessagesSent, int64(3)
				if seq {
					want = 3 * int64(len(as))
				}
				if frames != want {
					t.Errorf("a batch of %d cost %d frames, want %d", len(as), frames, want)
				}
				if l.grouped && !seq && up.Load() >= int64(len(as)) {
					t.Errorf("grouped uplink sent %d ciphertexts for %d instances", up.Load(), len(as))
				}
			})
		}
	}
}
