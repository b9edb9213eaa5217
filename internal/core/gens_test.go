package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/spatial"
)

// rowModel is the reference the RowGens differential test rebuilds from:
// nothing but the ordered survivor list (each record a unique id plus the
// generation that appended it) and the pair bits ever cached, keyed by
// record ids. Every expectation — counts, dead prefix, compacted rows,
// cell rows, cache contents — is derived from those two from scratch.
type rowModel struct {
	survivors []modelRow
	gens      int // generations ever appended
	dead      int
	nextID    int
	bits      map[[2]int]bool
}

type modelRow struct{ id, gen int }

func (m *rowModel) append(n int) (ids []int) {
	for i := 0; i < n; i++ {
		m.survivors = append(m.survivors, modelRow{id: m.nextID, gen: m.gens})
		ids = append(ids, m.nextID)
		m.nextID++
	}
	m.gens++
	return ids
}

func (m *rowModel) expire(gens int) {
	m.dead += gens
	m.keep(func(_ int, r modelRow) bool { return r.gen >= m.dead })
}

func (m *rowModel) retract(ids []int) {
	m.keep(func(i int, _ modelRow) bool { return !slices.Contains(ids, i) })
}

func (m *rowModel) keep(ok func(i int, r modelRow) bool) {
	var out []modelRow
	for i, r := range m.survivors {
		if ok(i, r) {
			out = append(out, r)
		}
	}
	m.survivors = out
}

// check compares g (and the family-owned matrix rows, compacted by the
// caller the way a family would) against the model.
func (m *rowModel) check(t *testing.T, step string, g *RowGens, rows []int) {
	t.Helper()
	counts := make([]int, m.gens)
	for _, r := range m.survivors {
		counts[r.gen]++
	}
	if !slices.Equal(g.Count, counts) || g.Dead != m.dead || g.N != len(m.survivors) {
		t.Fatalf("%s: counts %v dead %d n %d, model %v dead %d n %d", step, g.Count, g.Dead, g.N, counts, m.dead, len(m.survivors))
	}
	if dead, live := g.Window(); dead != m.dead || live != m.gens-m.dead {
		t.Fatalf("%s: window (%d, %d), model (%d, %d)", step, dead, live, m.dead, m.gens-m.dead)
	}
	if len(rows) != len(m.survivors) || len(g.CellRows) != len(m.survivors) {
		t.Fatalf("%s: %d rows, %d cell rows, model %d", step, len(rows), len(g.CellRows), len(m.survivors))
	}
	want := 0
	for i, r := range m.survivors {
		if rows[i] != r.id {
			t.Fatalf("%s: row %d is record %d, model %d", step, i, rows[i], r.id)
		}
		if g.CellRows[i][0] != int64(r.id) {
			t.Fatalf("%s: cell row %d is %v, model %d", step, i, g.CellRows[i], r.id)
		}
		// A bit survives iff both endpoints survive, at their renumbered
		// indices.
		for j := i + 1; j < len(m.survivors); j++ {
			bit, cached := m.bits[[2]int{r.id, m.survivors[j].id}]
			got, ok := g.Cache.m[[2]int{i, j}]
			if ok != cached || got != bit {
				t.Fatalf("%s: cache bit (%d,%d) = %v/%v, model %v/%v", step, i, j, got, ok, bit, cached)
			}
			if cached {
				want++
			}
		}
	}
	if g.Cache.Len() != want {
		t.Fatalf("%s: cache holds %d bits, model %d", step, g.Cache.Len(), want)
	}
}

// TestRowGensMatchesModel drives RowGens through random interleavings of
// Append / Expire / Retract — empty batches, expire-all, retracting a whole
// generation, retracting across a generation boundary — and checks every
// piece of lifecycle state against the rebuild-from-survivors model after
// every step.
func TestRowGensMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &rowModel{bits: make(map[[2]int]bool)}
		cellsOf := func(ids []int) [][]int64 {
			cells := make([][]int64, len(ids))
			for i, id := range ids {
				cells[i] = []int64{int64(id)}
			}
			return cells
		}
		rows := m.append(1 + rng.Intn(4))
		g := NewRowGens(len(rows), cellsOf(rows))
		for step := 0; step < 60; step++ {
			// Decide a few fresh pairs, as a Run would.
			for d := rng.Intn(6); d > 0 && len(rows) >= 2; d-- {
				i, j := rng.Intn(len(rows)), rng.Intn(len(rows))
				if i == j {
					continue
				}
				if i > j {
					i, j = j, i
				}
				v := rng.Intn(2) == 0
				g.Cache.m[[2]int{i, j}] = v
				m.bits[[2]int{rows[i], rows[j]}] = v
			}
			var name string
			_, live := g.Window()
			switch op := rng.Intn(8); {
			case op >= 5 && len(rows) > 0:
				var ids []int
				switch rng.Intn(3) {
				case 0: // every record of one live generation
					gen := g.Dead + rng.Intn(live)
					for i, r := range m.survivors {
						if r.gen == gen {
							ids = append(ids, i)
						}
					}
				case 1: // a run of neighbours, usually straddling a boundary
					lo := rng.Intn(len(rows))
					ids = []int{lo}
					for i := lo + 1; i < len(rows) && i < lo+4; i++ {
						ids = append(ids, i)
					}
				default:
					for i := range rows {
						if rng.Intn(3) == 0 {
							ids = append(ids, i)
						}
					}
				}
				m.retract(ids)
				g.Retract(ids)
				rows = CompactRows(rows, ids)
				name = "retract"
			case op >= 3 && live > 0:
				gens := 1 + rng.Intn(live)
				if rng.Intn(4) == 0 {
					gens = live // expire-all
				}
				m.expire(gens)
				rows = rows[g.Expire(gens):]
				name = "expire"
			default:
				ids := m.append(rng.Intn(4)) // empty batches included
				g.Append(len(ids), cellsOf(ids))
				rows = append(rows, ids...)
				name = "append"
			}
			m.check(t, name, g, rows)
		}
	}
}

// The region-count cache's edge semantics under expiry and retraction:
// one count per (own point, live peer generation), summed from the live
// edge up to the first unknown generation. The windowed and retraction
// harnesses prove it end to end; these tests pin the edges the settle
// step relies on.

// testPeerGens is a peer table of generations of the given live counts.
func testPeerGens(counts ...int) *PeerGens {
	p := newPeerGens(counts[0])
	p.dirs = []spatial.Directory{{}}
	for _, c := range counts[1:] {
		p.Append(c)
		p.dirs = append(p.dirs, spatial.Directory{})
	}
	return p
}

func TestCountCacheCoveredChain(t *testing.T) {
	p := testPeerGens(1, 1, 1, 1)
	for g, c := range []int{2, 5, 1, 0} {
		p.Record(3, g, c)
	}
	if count, upto := p.Covered(3); count != 8 || upto != 4 {
		t.Errorf("full run: count %d upto %d, want 8 upto 4", count, upto)
	}
	// Expire generation 0: its count goes, the rest keep serving.
	p.Expire(1, 0)
	if count, upto := p.Covered(3); count != 6 || upto != 4 {
		t.Errorf("after expiry at 1: count %d upto %d, want 6 upto 4", count, upto)
	}
	// The live edge moved past generation 1 too, and the row with it.
	p.Expire(1, 0)
	if count, upto := p.Covered(3); count != 1 || upto != 4 {
		t.Errorf("after expiry at 2: count %d upto %d, want 1 upto 4", count, upto)
	}
	if len(p.hdp[3]) != 2 {
		t.Errorf("row holds %d counts for 2 live generations", len(p.hdp[3]))
	}
	// An uncached point answers nothing.
	if count, upto := p.Covered(9); count != 0 || upto != 2 {
		t.Errorf("uncached point: count %d upto %d, want 0 upto 2", count, upto)
	}
}

// An unknown generation stops coverage; the count beyond it is kept for a
// future live edge, not summed early.
func TestCountCacheHole(t *testing.T) {
	p := testPeerGens(1, 1, 1, 1)
	p.Expire(1, 0)
	p.Record(1, 1, 3)
	p.Record(1, 3, 9) // generation 2 unknown, as after a peer retraction
	if count, upto := p.Covered(1); count != 3 || upto != 2 {
		t.Errorf("hole: count %d upto %d, want 3 upto 2", count, upto)
	}
	p.Expire(2, 0)
	if count, upto := p.Covered(1); count != 9 || upto != 4 {
		t.Errorf("post-hole head: count %d upto %d, want 9 upto 4", count, upto)
	}
}

// An own expiry drops the expired points' rows and shifts the survivors
// onto the compacted indices.
func TestCountCacheRemap(t *testing.T) {
	p := testPeerGens(1, 1)
	p.Record(0, 1, 4)
	p.Record(2, 1, 6)
	p.Expire(1, 2)
	if len(p.hdp) != 1 {
		t.Fatalf("expiry kept %d rows, want 1", len(p.hdp))
	}
	if count, upto := p.Covered(0); count != 6 || upto != 2 {
		t.Errorf("remapped point 2→0: count %d upto %d, want 6 upto 2", count, upto)
	}
}

// A retraction compacts the rows of our own retracted points away and
// turns unknown the counts of every peer generation that lost a point.
func TestCountCacheRetract(t *testing.T) {
	p := testPeerGens(2, 2)
	for i, row := range [][]int{{1, 2}, {1, 1}, {0, 2}} {
		for g, c := range row {
			p.Record(i, g, c)
		}
	}
	p.Retract([]int{1}, []int{2}) // peer id 2 is generation 1's first point
	if !slices.Equal(p.Count, []int{2, 1}) || p.N != 3 {
		t.Errorf("peer counts %v (N %d), want [2 1] (3)", p.Count, p.N)
	}
	for i, want := range [][2]int{{1, 1}, {0, 1}} {
		if count, upto := p.Covered(i); count != want[0] || upto != want[1] {
			t.Errorf("point %d: count %d upto %d, want %d upto %d", i, count, upto, want[0], want[1])
		}
	}
}

// PairCache.Expire drops every bit touching an expired record and
// shifts the survivors; a nil cache tolerates the call.
func TestPairCacheExpire(t *testing.T) {
	c := NewPairCache()
	c.m[[2]int{0, 3}] = true  // touches expired record 0 — dropped
	c.m[[2]int{1, 2}] = false // touches expired record 1 — dropped
	c.m[[2]int{2, 4}] = true  // survives as {0, 2}
	c.m[[2]int{3, 4}] = false // survives as {1, 2}
	c.Expire(2)
	if c.Len() != 2 {
		t.Fatalf("expire kept %d pairs, want 2", c.Len())
	}
	if v, ok := c.m[[2]int{0, 2}]; !ok || !v {
		t.Errorf("pair {2,4} did not survive as {0,2}=true: %v %v", v, ok)
	}
	if v, ok := c.m[[2]int{1, 2}]; !ok || v {
		t.Errorf("pair {3,4} did not survive as {1,2}=false: %v %v", v, ok)
	}
	var nilCache *PairCache
	nilCache.Expire(1) // must not panic
}
