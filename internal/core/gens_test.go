package core

import (
	"math/rand"
	"slices"
	"testing"
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
