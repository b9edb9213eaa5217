package multiparty

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/transport"
)

// TestMeshDrawsOneKeySetPerParty: a mesh party draws one key set and
// hands it to every edge, so each of its k−1 Pairs holds the same
// Paillier key (and under YMPP the same RSA key), every peer parses the
// same moduli for it, and the whole mesh runs on exactly k Paillier
// moduli. A Run at W = 4 settles the edges concurrently over the shared
// key. A two-party Session still draws its own set: its key and its
// peer's differ.
func TestMeshDrawsOneKeySetPerParty(t *testing.T) {
	for _, k := range []int{3, 4} {
		for _, eng := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("k=%d/%s/W=%d", k, eng, w), func(t *testing.T) {
					cfg := testCfg(eng)
					cfg.Parallel = w
					checkMeshKeys(t, k, cfg)
					checkSessionKeys(t, cfg)
				})
			}
		}
	}
}

func checkMeshKeys(t *testing.T, k int, cfg Config) {
	mesh := NewLocalMesh(k)
	sessions := make([]*MeshSession, k)
	runParties(t, k, func(p int) error {
		defer func() {
			for q, c := range mesh[p] {
				if q != p {
					c.Close()
				}
			}
		}()
		points := [][]float64{{float64(1 + p), 1}, {2, float64(1 + p)}, {9, float64(9 - p)}}
		ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, points)
		if err != nil {
			return err
		}
		sessions[p] = ms
		_, err = ms.Run()
		return err
	})
	ympp := cfg.Engine == compare.EngineYMPP
	own := make([]core.KeySet, k)
	moduli := map[string]bool{}
	for p, ms := range sessions {
		ms.h.eachPeer(func(q int, sess *pairSession) error {
			keys, _, _ := sess.Keys()
			moduli[keys.Paillier.N.String()] = true
			if own[p].Paillier == nil {
				own[p] = keys
			} else if keys.Paillier != own[p].Paillier || keys.RSA != own[p].RSA {
				t.Errorf("party %d: edge to %d holds another key set", p, q)
			}
			return nil
		})
		if ympp != (own[p].RSA != nil) {
			t.Errorf("party %d: RSA key %v under %s", p, own[p].RSA, cfg.Engine)
		}
	}
	for q, ms := range sessions {
		ms.h.eachPeer(func(p int, sess *pairSession) error {
			_, pai, rsa := sess.Keys()
			if pai.N.Cmp(own[p].Paillier.N) != 0 {
				t.Errorf("party %d parses another Paillier modulus for party %d", q, p)
			}
			if ympp && rsa.N.Cmp(own[p].RSA.N) != 0 {
				t.Errorf("party %d parses another RSA modulus for party %d", q, p)
			}
			return nil
		})
	}
	if len(moduli) != k {
		t.Errorf("%d parties run on %d distinct Paillier moduli, want %d", k, len(moduli), k)
	}
}

// checkSessionKeys establishes one two-party horizontal Session per side
// and checks that each holds its own key and the other's public half.
func checkSessionKeys(t *testing.T, cfg Config) {
	cc, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := transport.Pipe()
	defer ca.Close()
	defer cb.Close()
	var sess [2]*core.Session
	points := [][]float64{{1, 1}, {2, 2}, {9, 9}}
	if err := transport.RunPair(ca, cb,
		func(c transport.Conn) (err error) {
			sess[0], err = core.NewHorizontalSession(c, cc, core.RoleAlice, points)
			return err
		},
		func(c transport.Conn) (err error) {
			sess[1], err = core.NewHorizontalSession(c, cc, core.RoleBob, points)
			return err
		}); err != nil {
		t.Fatal(err)
	}
	var n [2]*big.Int
	for i, s := range sess {
		keys, _, _ := s.Keys()
		n[i] = keys.Paillier.N
	}
	for i, s := range sess {
		if _, peer, _ := s.Keys(); peer.N.Cmp(n[1-i]) != 0 {
			t.Errorf("session side %d parses another modulus than its peer holds", i)
		}
	}
	if n[0].Cmp(n[1]) == 0 {
		t.Error("the two sides of a two-party Session hold the same Paillier key")
	}
}
