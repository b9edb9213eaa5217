package core

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/partition"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// TestLockstepDomain draws random grids — MaxCoord M ≤ 40, cell width
// W ∈ [1, M+1], m ≤ 4 attributes — with random ownership and points in
// [0, M], the last two records a pair split on every attribute inside the
// top cell with RoleAlice's values at u = M. Over every adjacent pair and
// the thresholds T = dist², T = dist² − 1 and a random one it checks what
// the lockstep comparison relies on: RoleAlice's vertical partial sum and
// her shifted arbitrary share lie in [0, D], both sides derive the same
// shift, and a′ < clamp(T − b′ + 1, 0, D+1) decides dist² ≤ T. On the
// one-cell grid (W > M) D is the dist² bound.
func TestLockstepDomain(t *testing.T) {
	r := rand.New(rand.NewPCG(45, 21))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		M := 1 + r.Int64N(40)
		W := 1 + r.Int64N(M+1)
		m := 1 + r.IntN(4)
		n := 2 + r.IntN(8)
		pts := make([][]int64, n)
		owners := make([][]partition.Owner, n)
		top := M / W * W
		for i := range pts {
			pts[i], owners[i] = make([]int64, m), make([]partition.Owner, m)
			for k := range pts[i] {
				switch i {
				case n - 2:
					pts[i][k], owners[i][k] = M, partition.Alice
				case n - 1:
					pts[i][k], owners[i][k] = top+r.Int64N(M-top+1), partition.Bob
				default:
					pts[i][k], owners[i][k] = r.Int64N(M+1), partition.Owner(r.IntN(2))
				}
			}
		}
		s := &Pair{cfg: Config{MaxCoord: M}, dim: m, bound: int64(m) * M * M, cellW: W}
		cells := make([][]int64, n)
		for i, p := range pts {
			cells[i] = spatial.Bucket(p, W)
		}
		aliceDim := 1 + r.IntN(max(m-1, 1))
		dA, dV := s.arbitraryDomain(), s.verticalDomain(aliceDim)
		if W > M && (dA != s.bound || dV != s.bound) {
			t.Fatalf("W=%d > M=%d: domains %d and %d, want the bound %d", W, M, dA, dV, s.bound)
		}
		alice := &adpState{s: s, role: RoleAlice, enc: ownedBy(pts, owners, partition.Alice), owners: owners}
		bob := &adpState{s: s, role: RoleBob, enc: ownedBy(pts, owners, partition.Bob), owners: owners}
		// decides reports whether the clamped strict comparison over [0, d]
		// decides dist² ≤ T at every threshold of the pair.
		decides := func(a, b, dist, d int64) bool {
			for _, eps := range []int64{dist, dist - 1, r.Int64N(s.bound + 1)} {
				if eps < 0 {
					continue
				}
				s.epsSq = eps
				if (a < s.responderOperand(d+1, b)) != (dist <= eps) {
					return false
				}
			}
			return true
		}
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				if !spatial.Adjacent(cells[i], cells[j]) {
					continue
				}
				checked++
				var dist, av int64
				for k := range m {
					d := pts[i][k] - pts[j][k]
					if dist += d * d; k < aliceDim {
						av += d * d
					}
				}
				if m > 1 && (av < 0 || av > dV || !decides(av, dist-av, dist, dV)) {
					t.Fatalf("M=%d W=%d: vertical pair %v,%v: Alice's %d over domain %d", M, W, pts[i], pts[j], av, dV)
				}
				la, mixA := alice.pairTerms(i, j)
				lb, mixB := bob.pairTerms(i, j)
				var cross int64
				for k := range mixA {
					cross += mixA[k] * mixB[k]
				}
				shift := alice.splitShift(cells, i, j)
				if other := bob.splitShift(cells, i, j); other != shift {
					t.Fatalf("the parties shift pair (%d,%d) by %d and %d", i, j, shift, other)
				}
				a, b := la-shift, lb-2*cross+shift
				if a+b != dist {
					t.Fatalf("shifted shares %d + %d, want dist² %d", a, b, dist)
				}
				if a < 0 || a > dA || !decides(a, b, dist, dA) {
					t.Fatalf("M=%d W=%d: arbitrary pair %v,%v owned %v,%v: Alice's shifted share %d over domain %d",
						M, W, pts[i], pts[j], owners[i], owners[j], a, dA)
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d adjacent pairs checked", checked)
	}
}

// ownedBy is the encoded matrix a party holds under the ownership matrix:
// its own values, zero elsewhere (Config.encodeOwnedCells).
func ownedBy(pts [][]int64, owners [][]partition.Owner, who partition.Owner) [][]int64 {
	enc := make([][]int64, len(pts))
	for i, p := range pts {
		enc[i] = make([]int64, len(p))
		for k, x := range p {
			if owners[i][k] == who {
				enc[i][k] = x
			}
		}
	}
	return enc
}

// tagTap records every frame a party sends under the Meter tag it was sent
// under.
type tagTap struct {
	transport.Conn
	mu   sync.Mutex
	tag  string
	sent map[string][][]byte
}

func newTagTap(c transport.Conn) *tagTap { return &tagTap{Conn: c, sent: make(map[string][][]byte)} }

func (c *tagTap) SetTag(tag string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.tag
	c.tag = tag
	return prev
}

func (c *tagTap) Send(b []byte) error {
	c.mu.Lock()
	c.sent[c.tag] = append(c.sent[c.tag], append([]byte(nil), b...))
	c.mu.Unlock()
	return c.Conn.Send(b)
}

// first returns the first frame sent under tag.
func (c *tagTap) first(t *testing.T, tag string) *transport.Reader {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.sent[tag]) == 0 {
		t.Fatalf("no %s frame sent", tag)
	}
	return transport.NewReader(c.sent[tag][0])
}

// tappedRun runs one cold Run of a two-party session over tapped
// connections and returns RoleAlice's and RoleBob's taps.
func tappedRun(t *testing.T, cfg Config, open func(transport.Conn, Config, Role) (*Session, error)) (*tagTap, *tagTap) {
	t.Helper()
	ca, cb := transport.Pipe()
	ta, tb := newTagTap(ca), newTagTap(cb)
	err := transport.RunPair(ta, tb,
		func(transport.Conn) error {
			sess, err := open(ta, cfg, RoleAlice)
			if err != nil {
				return err
			}
			if _, err := sess.Run(); err != nil {
				return err
			}
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, err := open(tb, cfg, RoleBob)
			if err != nil {
				return err
			}
			for {
				if _, err := sess.Run(); errors.Is(err, ErrSessionClosed) {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return ta, tb
}

// TestLockstepDomainFrame pins the YMPP domain on the wire: RoleBob's
// round-1 header (n0 ‖ count ‖ …) of a vertical and an arbitrary Run
// carries n0 = D + 2. On testCfg's grid (M = 7, Eps² = 4, so W = 2),
// vertical's D is m_A·min(2W − 1, M)² = 1·9 and arbitrary's is
// m·max(9, max_c[min((c+1)W − 1, M)² − (cW)²]) = 2·(7² − 6²) = 26; on the
// one-cell grid both are the dist² bound 2·7² = 98.
func TestLockstepDomainFrame(t *testing.T) {
	pts := append(append([][]float64{}, testAlicePts...), testBobPts...)
	column := func(k int) [][]float64 {
		out := make([][]float64, len(pts))
		for i, p := range pts {
			out[i] = []float64{p[k]}
		}
		return out
	}
	families := []struct {
		name string
		tag  string
		open func(transport.Conn, Config, Role) (*Session, error)
	}{
		{"vertical", "vdp.cmp", func(c transport.Conn, cfg Config, role Role) (*Session, error) {
			return NewVerticalSession(c, cfg, role, column(int(role)))
		}},
		{"arbitrary", "adp.cmp", func(c transport.Conn, cfg Config, role Role) (*Session, error) {
			return NewArbitrarySession(c, cfg, role, pts, streamOwners(pts, 0))
		}},
	}
	want := map[string]uint64{"vertical/grid": 9 + 2, "arbitrary/grid": 26 + 2, "vertical/off": 98 + 2, "arbitrary/off": 98 + 2}
	for _, fam := range families {
		for _, pruning := range []PruneMode{PruneGrid, PruneOff} {
			row := fam.name + "/" + string(pruning)
			t.Run(row, func(t *testing.T) {
				cfg := testCfg(compare.EngineYMPP)
				cfg.Pruning = pruning
				_, tb := tappedRun(t, cfg, fam.open)
				if n0 := tb.first(t, fam.tag).Uint(); n0 != want[row] {
					t.Fatalf("round-1 header carries n0 = %d, want %d", n0, want[row])
				}
			})
		}
	}
}

// TestArbitraryUplinkClassesKeyedByShift runs an arbitrary Run under
// masked "full" packing on one chunk whose row 3 mixes shifts: record 3 is
// RoleBob's v = 3 in cell 1, and RoleAlice's u = 2, 4, 2 in cells 1, 2, 1
// shift to u² − (cW)² = 0 each, under L = 4, 16, 4. RoleAlice's grouped
// uplink must dedup records 0 and 2 in row 3 — one class — and keep
// record 1 apart: no class joins two instances with different L, and every
// class lies inside one class of the (row, a) partition, a the unshifted
// share. Keying the classes by row alone joins all three.
func TestArbitraryUplinkClassesKeyedByShift(t *testing.T) {
	values := [][]float64{{2}, {4}, {2}, {3}}
	owners := [][]partition.Owner{{partition.Alice}, {partition.Alice}, {partition.Alice}, {partition.Bob}}
	cfg := testCfg(compare.EngineMasked)
	cfg.Packing = PackFull
	ta, _ := tappedRun(t, cfg, func(c transport.Conn, cfg Config, role Role) (*Session, error) {
		return NewArbitrarySession(c, cfg, role, values, owners)
	})
	r := ta.first(t, "adp.cmp")
	if pred, mode := r.Uint(), r.Uint(); mode != 2 {
		t.Fatalf("uplink mode %d (predicate %d), want the grouped mode 2: the chunk holds no repeat", mode, pred)
	}
	classIdx := r.Ints(6)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// Every pair is adjacent on the W = 2 grid, so the one chunk holds all
	// six, row by row. Instance t's key: its row, its unshifted share a,
	// its shift L.
	const w = 2
	type key struct{ row, a, shift int64 }
	var keys []key
	for j := 1; j < len(values); j++ {
		for i := 0; i < j; i++ {
			u, v := int64(values[i][0]), int64(values[j][0])
			k := key{row: int64(j), a: (u - v) * (u - v)}
			if owners[i][0] != owners[j][0] {
				c := u / w * w
				k.a, k.shift = u*u, c*c
			}
			keys = append(keys, k)
		}
	}
	if len(classIdx) != len(keys) {
		t.Fatalf("%d class indices for %d instances", len(classIdx), len(keys))
	}
	classes := make(map[int64]key)
	for u, c := range classIdx {
		first, ok := classes[c]
		if !ok {
			classes[c] = keys[u]
			continue
		}
		if first.shift != keys[u].shift {
			t.Errorf("class %d joins shifts %d and %d", c, first.shift, keys[u].shift)
		}
		if first.row != keys[u].row || first.a != keys[u].a {
			t.Errorf("class %d joins (row %d, a %d) and (row %d, a %d)", c, first.row, first.a, keys[u].row, keys[u].a)
		}
	}
	if len(classes) != len(keys)-1 {
		t.Errorf("%d classes over %d instances, want one repeat (records 0 and 2 in row 3)", len(classes), len(keys))
	}
}
