package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compare"
	"repro/internal/fixedpoint"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// newTestSessions builds a connected Alice/Bob session pair directly,
// bypassing the public protocol entry points, for sub-protocol unit tests.
func newTestSessions(t *testing.T, cfg Config, dim int) (*Pair, *Pair, transport.Conn, transport.Conn) {
	t.Helper()
	cfg = cfg.withDefaults()
	ca, cb := transport.Pipe()
	type out struct {
		s   *Pair
		err error
	}
	ch := make(chan out, 2)
	setup := func(conn transport.Conn, role Role) (*Pair, error) {
		s, _, err := establishDrawn(conn, cfg, role, "unit", dim, 1)
		if err == nil {
			err = s.setDimension(dim)
		}
		if err == nil {
			err = s.rowDotPackers()
		}
		return s, err
	}
	go func() {
		s, err := setup(ca, RoleAlice)
		ch <- out{s, err}
	}()
	sB, errB := setup(cb, RoleBob)
	resA := <-ch
	if resA.err != nil || errB != nil {
		t.Fatalf("session setup: alice=%v bob=%v", resA.err, errB)
	}
	return resA.s, sB, ca, cb
}

// TestHDPSingleQuery exercises one region query at the sub-protocol level
// — the chunk exchange on a one-sub-query chunk at every packing, and the
// paper's masked round it replaced — across both engines, and checks the
// count against plaintext distances.
func TestHDPSingleQuery(t *testing.T) {
	driverPt := []int64{3, 3}
	responderPts := [][]int64{{3, 4}, {0, 0}, {4, 4}, {7, 7}, {3, 3}}
	for _, engine := range []compare.EngineKind{compare.EngineYMPP, compare.EngineMasked} {
		for _, packing := range []PackMode{PackOff, PackSlots, PackFull} {
			for _, masked := range []bool{false, true} {
				cfg := testCfg(engine)
				cfg.Packing = packing
				sA, sB, ca, cb := newTestSessions(t, cfg, 2)
				defer ca.Close()
				defer cb.Close()
				// eps=2 → epsSq=4: neighbours are (3,4), (4,4), (3,3) → 3.
				wantCount := 0
				for _, p := range responderPts {
					if fixedpoint.DistSq(driverPt, p) <= sA.epsSq {
						wantCount++
					}
				}

				engA, _, err := sA.DistEngines()
				if err != nil {
					t.Fatal(err)
				}
				_, engB, err := sB.DistEngines()
				if err != nil {
					t.Fatal(err)
				}
				var got int
				errc := make(chan error, 1)
				if masked {
					go func() {
						errc <- maskedHDPServe(sB, 0, sB.channelRng(0), engB[0], responderPts, 0)
					}()
					got, err = maskedHDPCount(sA, 0, engA[0], driverPt, len(responderPts))
				} else {
					go func() {
						rows := [][][]int64{permuteCandidates(sB.channelRng(0), responderPts, 0)}
						errc <- sB.HDPServe(0, engB[0], rows)
					}()
					var counts []int
					counts, err = sA.HDPCount(0, engA[0], [][]int64{driverPt}, []SubQuery{{NCand: len(responderPts)}})
					if err == nil {
						got = counts[0]
					}
				}
				at := fmt.Sprintf("%s/packing=%s/masked=%v", engine, packing, masked)
				if err != nil {
					t.Fatalf("%s: driver: %v", at, err)
				}
				if err := <-errc; err != nil {
					t.Fatalf("%s: responder: %v", at, err)
				}
				if got != wantCount {
					t.Errorf("%s: count = %d, want %d", at, got, wantCount)
				}
			}
		}
	}
}

// TestHDPZeroPeerPoints: a chunk whose sub-queries hold no candidates
// must short-circuit without protocol.
func TestHDPZeroPeerPoints(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	sA, _, ca, cb := newTestSessions(t, cfg, 2)
	defer ca.Close()
	defer cb.Close()
	engA, _, err := sA.DistEngines()
	if err != nil {
		t.Fatal(err)
	}
	counts, err := sA.HDPCount(0, engA[0], [][]int64{{1, 1}}, []SubQuery{{}, {Gen: 1}})
	if err != nil || fmt.Sprint(counts) != "[0 0]" {
		t.Errorf("zero-peer chunk: counts=%v err=%v", counts, err)
	}
}

// Property: for random grids and parameters, the masked-engine horizontal
// protocol always reproduces the Algorithm 3/4 simulation exactly.
func TestHorizontalPropertyRandomGrids(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto-heavy property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nA := 4 + rng.Intn(8)
		nB := 4 + rng.Intn(8)
		mk := func(n int) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{float64(rng.Intn(16)), float64(rng.Intn(16))}
			}
			return pts
		}
		aPts, bPts := mk(nA), mk(nB)
		cfg := Config{
			Eps:          float64(2 + rng.Intn(3)),
			MinPts:       2 + rng.Intn(3),
			MaxCoord:     15,
			PaillierBits: 256,
			RSABits:      256,
			Engine:       compare.EngineMasked,
			Seed:         seed + 1,
		}
		var ra, rb *Result
		err := transport.Run2(
			func(c transport.Conn) error {
				r, err := HorizontalAlice(c, cfg, aPts)
				ra = r
				return err
			},
			func(c transport.Conn) error {
				r, err := HorizontalBob(c, cfg, bPts)
				rb = r
				return err
			},
		)
		if err != nil {
			return false
		}
		encA, _ := cfg.withDefaults().EncodePoints(aPts)
		encB, _ := cfg.withDefaults().EncodePoints(bPts)
		epsSq, _ := cfg.withDefaults().epsSquared()
		wantA, _, wantB, _ := SimulateHorizontal(encA, encB, epsSq, cfg.MinPts)
		return metrics.ExactMatch(ra.Labels, wantA) && metrics.ExactMatch(rb.Labels, wantB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// Property: the enhanced protocol agrees with the basic protocol on random
// grids (their functional specifications coincide).
func TestEnhancedPropertyAgreesWithBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto-heavy property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		mk := func(n int) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{float64(rng.Intn(12)), float64(rng.Intn(12))}
			}
			return pts
		}
		aPts, bPts := mk(5+rng.Intn(6)), mk(5+rng.Intn(6))
		cfg := Config{
			Eps:          float64(2 + rng.Intn(2)),
			MinPts:       3,
			MaxCoord:     15,
			PaillierBits: 256,
			RSABits:      256,
			Engine:       compare.EngineMasked,
			Seed:         seed + 2,
		}
		var ea *Result
		err := transport.Run2(
			func(c transport.Conn) error {
				r, err := EnhancedHorizontalAlice(c, cfg, aPts)
				ea = r
				return err
			},
			func(c transport.Conn) error {
				_, err := EnhancedHorizontalBob(c, cfg, bPts)
				return err
			},
		)
		if err != nil {
			return false
		}
		encA, _ := cfg.withDefaults().EncodePoints(aPts)
		encB, _ := cfg.withDefaults().EncodePoints(bPts)
		epsSq, _ := cfg.withDefaults().epsSquared()
		wantA, _, _, _ := SimulateHorizontal(encA, encB, epsSq, cfg.MinPts)
		return metrics.ExactMatch(ea.Labels, wantA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// TestSimulatePassMatchesFullDBSCANWhenOneSided: when the peer holds no
// nearby points, Algorithm 3/4 degenerates to plain DBSCAN on own points.
func TestSimulatePassMatchesFullDBSCANWhenOneSided(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	own := make([][]int64, 30)
	for i := range own {
		own[i] = []int64{int64(rng.Intn(20)), int64(rng.Intn(20))}
	}
	farPeer := [][]int64{{1000, 1000}}
	labels, k := SimulateHorizontalPass(own, farPeer, 9, 3)
	oracleLabels, oracleK := simulatePlainDBSCAN(own, 9, 3)
	if k != oracleK || !metrics.ExactMatch(labels, oracleLabels) {
		t.Error("one-sided Algorithm 3/4 must equal plain DBSCAN on own points")
	}
}

// simulatePlainDBSCAN is a minimal plain DBSCAN for the one-sided check.
func simulatePlainDBSCAN(pts [][]int64, epsSq int64, minPts int) ([]int, int) {
	return SimulateHorizontalPass(pts, nil, epsSq, minPts)
}

// TestLedgerString covers the ledger formatting.
func TestLedgerString(t *testing.T) {
	var l Ledger
	if l.String() != "ledger{}" {
		t.Errorf("empty ledger = %q", l.String())
	}
	l.NeighborCounts = 2
	l.CoreBits = 1
	s := l.String()
	if s != "ledger{neighborCounts=2 coreBits=1}" {
		t.Errorf("ledger string = %q", s)
	}
	var l2 Ledger
	l2.Add(l)
	l2.Add(l)
	if l2.NeighborCounts != 4 || l2.CoreBits != 2 {
		t.Errorf("Add: %+v", l2)
	}
}

func TestRoleString(t *testing.T) {
	if RoleAlice.String() != "alice" || RoleBob.String() != "bob" {
		t.Error("role names wrong")
	}
	if RoleAlice.peer() != RoleBob || RoleBob.peer() != RoleAlice {
		t.Error("peer() wrong")
	}
}

func TestCodecExported(t *testing.T) {
	cfg := Config{Eps: 1, MinPts: 2} // zero Scale must default to 1
	codec, err := cfg.Codec()
	if err != nil {
		t.Fatal(err)
	}
	if codec.Scale() != 1 {
		t.Errorf("default scale = %v", codec.Scale())
	}
}

// establishDrawn draws cfg's key set and establishes with it, as the
// two-party families do.
func establishDrawn(conn transport.Conn, cfg Config, role Role, proto string, ownDim, ownCount int) (*Pair, peerInfo, error) {
	keys, err := DrawKeySet(cfg)
	if err != nil {
		return nil, peerInfo{}, err
	}
	return establish(conn, cfg, keys, role, proto, ownDim, ownCount)
}
