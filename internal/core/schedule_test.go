package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/compare"
)

// scheduleStats counts, over many schedules, the cases that make
// checkSchedule's properties bite: a channel that
// ran a second chunk (the dealing order), a chunk over the bound as a
// single row, a chunk of several rows filled to the bound exactly (where
// splitting at the bound instead of past it would show), and the rows.
type scheduleStats struct{ secondRounds, oversize, exact, rows int }

// checkSchedule checks what settleSchedule dealt, from the outside: calls[ch]
// are channel ch's run calls in order, rows and weight what it was given.
// Chunk c must be the c/w-th call of channel c mod w; the chunks, read in
// that order, must be the rows' items in row order, cut only between rows;
// a chunk may pass the bound only as a single row; and no chunk may close
// while the next one's first row would still have fitted under the bound.
func checkSchedule[T any](t *testing.T, at string, rows [][]T, weight func([]T) int, w, bound int, calls [][][]T, st *scheduleStats) {
	t.Helper()
	total := 0
	for _, ch := range calls {
		total += len(ch)
	}
	if len(calls) > w {
		t.Fatalf("%s: calls on %d channels at W=%d", at, len(calls), w)
	}
	var chunks [][]T
	for c := 0; c < total; c++ {
		if ch := calls[c%w]; c/w < len(ch) {
			chunks = append(chunks, ch[c/w])
			continue
		}
		t.Fatalf("%s: %d chunks, but channel %d ran only %d — not dealt round-robin", at, total, c%w, len(calls[c%w]))
	}
	if total > w {
		st.secondRounds++
	}
	if got, want := slices.Concat(chunks...), slices.Concat(rows...); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the chunks hold %v, the rows in order %v", at, got, want)
	}
	// Where each non-empty row starts in the flat order, and its weight.
	var starts, weights []int
	flat := 0
	for _, row := range rows {
		if len(row) > 0 {
			starts, weights = append(starts, flat), append(weights, weight(row))
			st.rows++
		}
		flat += len(row)
	}
	flat, r := 0, 0
	for c, chunk := range chunks {
		if len(chunk) == 0 || r >= len(starts) || starts[r] != flat {
			t.Fatalf("%s: chunk %d (%d items) does not start at a row", at, c, len(chunk))
		}
		size, first := 0, r
		for flat += len(chunk); r < len(starts) && starts[r] < flat; r++ {
			size += weights[r]
		}
		if r < len(starts) && starts[r] != flat {
			t.Fatalf("%s: a row is split after chunk %d", at, c)
		}
		switch {
		case size > bound && r-first > 1:
			t.Errorf("%s: chunk %d holds %d rows of weight %d, over the bound %d", at, c, r-first, size, bound)
		case size > bound:
			st.oversize++
		case size == bound && r-first > 1:
			st.exact++
		}
		if r < len(starts) && size+weights[r] <= bound {
			t.Errorf("%s: chunk %d closed at weight %d though the next row (%d) fits under %d", at, c, size, weights[r], bound)
		}
	}
}

// recordCalls is a run hook for settleSchedule's callers that records each
// channel's calls and answers from decide.
func recordCalls[T, R any](w int, decide func(T) R) (calls [][][]T, run func(ch int, chunk []T) ([]R, error)) {
	var mu sync.Mutex
	calls = make([][][]T, w)
	return calls, func(ch int, chunk []T) ([]R, error) {
		mu.Lock()
		calls[ch] = append(calls[ch], slices.Clone(chunk))
		mu.Unlock()
		out := make([]R, len(chunk))
		for u, it := range chunk {
			out[u] = decide(it)
		}
		return out, nil
	}
}

// TestSettleScheduleDealsEveryRowOnce is the property test of the one
// settle schedule, run straight, with checkSchedule reading every dealing
// back from the calls each channel received: over random rows — empty
// ones, rows of zero weight, rows heavier than the bound — W ∈ {1, 2, 4,
// 7} and bounds {1, 3, 17, 256}, settleSchedule deals as checkSchedule
// demands and returns every item's result in its chunk's place. Its two
// two-party callers are held to the same property by
// TestLockstepDecidesEveryPairOnce and TestSettleDecidesEverySubQueryOnce.
func TestSettleScheduleDealsEveryRowOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var st scheduleStats
	for trial := 0; trial < 40; trial++ {
		rows := make([][]int, rng.Intn(30))
		weights := map[int]int{}
		next := 0
		for j := range rows {
			for range rng.Intn(4) {
				rows[j] = append(rows[j], next)
				weights[next] = []int{0, 1, 2, 5, 40}[rng.Intn(5)]
				next++
			}
		}
		weight := func(row []int) (n int) {
			for _, it := range row {
				n += weights[it]
			}
			return n
		}
		for _, w := range []int{1, 2, 4, 7} {
			for _, bound := range []int{1, 3, 17, lockstepChunk} {
				at := fmt.Sprintf("straight trial %d W=%d bound=%d", trial, w, bound)
				calls, run := recordCalls(w, func(it int) int { return 3 * it })
				chunks, results, err := settleSchedule(rows, weight, w, bound, run)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				checkSchedule(t, at, rows, weight, w, bound, calls, &st)
				for c, chunk := range chunks {
					for u, it := range chunk {
						if results[c][u] != 3*it {
							t.Fatalf("%s: item %d's result %d came back as %d", at, it, 3*it, results[c][u])
						}
					}
				}
			}
		}
	}
	if st.secondRounds == 0 || st.oversize == 0 || st.exact == 0 {
		t.Errorf("vacuous: %+v", st)
	}
}

// TestLockstepDecidesEveryPairOnce holds LockstepCluster to the settle
// schedule's property, wave by wave: over random graphs × random prior
// caches × random local deciders × widths × chunk bounds, every pair is
// offered to decideLocal once; a pair it declines and the prior holds
// fires onCached once, with the cached bit, and never reaches the oracle;
// every other pair reaches batchOn at most once — exactly the pairs a
// plaintext replay of the planner names (replayPlan), each wave dealt as
// checkSchedule demands with a row j of the pairs (i, j); the oracle's
// results land in the prior (checkLockstepPlan); and the labels are plain
// DBSCAN's on the same graph and the old wave driver's on the same inputs.
// It also reports what the phase-1 multiplier buys: the replay's decisions
// and waves summed over the cases at k ∈ {1, 2, 4}.
func TestLockstepDecidesEveryPairOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var st scheduleStats
	multiWave := 0
	sums := map[int][2]int{}
	for trial := 0; trial < 30; trial++ {
		c := randomPlanCase(rng, 36)
		if trial < 3 {
			c = randomPlanCase(rng, 1) // the degenerate size, always
			c.n = trial
		}
		for _, bound := range []int{1, 3, 17, lockstepChunk} {
			for _, k := range []int{1, 2, 4} {
				s := sums[k]
				for _, wave := range c.replay(k, bound) {
					s[0]++
					s[1] += len(wave)
				}
				sums[k] = s
			}
		}
		for _, w := range []int{1, 2, 4, 7} {
			for _, bound := range []int{1, 3, 17, lockstepChunk} {
				name := fmt.Sprintf("lockstep trial %d n=%d MinPts=%d W=%d bound=%d", trial, c.n, c.minPts, w, bound)
				labels, k, waves := checkLockstepPlan(t, name, c, w, bound, &st)
				if len(waves) >= 2 {
					multiWave++
				}
				var old lockstepTrace
				onCached, decideLocal, batchOn := old.hooks(c.within, c.localOf)
				oldLabels, oldK, err := waveLockstepCluster(c.n, c.minPts, w, c.prior(), onCached, decideLocal, batchOn)
				if err != nil {
					t.Fatalf("%s: wave driver: %v", name, err)
				}
				if !slices.Equal(labels, oldLabels) || k != oldK {
					t.Errorf("%s: labels %v (%d clusters), the wave driver %v (%d)", name, labels, k, oldLabels, oldK)
				}
			}
		}
	}
	if st.secondRounds == 0 || st.oversize == 0 || multiWave == 0 {
		t.Errorf("vacuous: %+v, %d runs of two waves or more", st, multiWave)
	}
	for _, k := range []int{1, 2, 4} {
		t.Logf("k=%d: %d decisions in %d waves over the cases", k, sums[k][1], sums[k][0])
	}
}

// TestSettleDecidesEverySubQueryOnce holds Pair.settle to the settle
// schedule's property, with the chunk runner replaced by a recorder: over
// random point sets, random caches (nothing, a prefix, a prefix and a
// stale count past a hole), with and without an expired generation,
// both announcement policies, pruning on and off, W ∈ {1, 2, 4, 7} and
// bounds {1, 3, 17, 256} — every sub-query the cache leaves open is dealt
// as checkSchedule demands with a row per own point, and afterwards the
// cache answers every point in full with the counts the runner returned.
func TestSettleDecidesEverySubQueryOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var st scheduleStats
	fake := func(q SubQuery) int { return (q.Point*31 + q.Gen*7) % (q.NCand + 1) }
	stale := 0
	for trial := 0; trial < 8; trial++ {
		cfg := testCfg(compare.EngineMasked)
		cfg.Pruning = []PruneMode{PruneGrid, PruneOff}[trial%2]
		f := openSettleFixture(t, cfg, randomGens(rng, 1+rng.Intn(4)))
		if _, live := f.hs[0].own.Window(); trial%4 >= 2 && live > 1 {
			if err := f.sess[0].Expire(1); err != nil {
				t.Fatal(err)
			}
		}
		s, own, peer := f.sess[0].s, f.hs[0].own, f.hs[0].peer
		gens := len(peer.Count)
		// The cache before the settle: per point, what it already answers.
		seed := make([][]int, len(own.Enc)) // rows from the live edge
		known := make(map[[2]int]int)
		for i := range own.Enc {
			upto := own.Dead
			if rng.Intn(3) > 0 {
				upto += rng.Intn(gens - own.Dead + 1)
			}
			for g := own.Dead; g < upto; g++ {
				known[[2]int{i, g}] = rng.Intn(4)
				seed[i] = append(seed[i], known[[2]int{i, g}])
			}
			if upto+1 < gens && rng.Intn(2) == 0 {
				seed[i] = append(seed[i], unknown, 99) // stale, past a hole
				stale++
			}
		}
		for _, closeSweeps := range []bool{true, false} {
			for _, w := range []int{1, 2, 4, 7} {
				for _, bound := range []int{1, 3, 17, 256} {
					at := fmt.Sprintf("settle trial %d pruning=%s closeSweeps=%v W=%d bound=%d", trial, cfg.Pruning, closeSweeps, w, bound)
					peer.hdp = make([][]int, len(seed))
					for i, row := range seed {
						peer.hdp[i] = append([]int(nil), row...)
					}
					calls, run := recordCalls(w, fake)
					if err := s.settle(own, peer, w, bound, closeSweeps, run); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					// What must be asked, independently: one row per point.
					rows := make([][]SubQuery, len(own.Enc))
					for i, p := range own.Enc {
						from := own.Dead
						for ; from < gens; from++ {
							if _, ok := known[[2]int{i, from}]; !ok {
								break
							}
						}
						if peer.pre[i] != from {
							t.Errorf("%s: point %d watermark %d, its cache reached %d", at, i, peer.pre[i], from)
						}
						for g := from; g < gens && peer.N > 0; g++ {
							q := s.SubQuery(peer, p, i, g)
							if (closeSweeps && (peer.Count[g] > 0 || g == gens-1)) || (!closeSweeps && q.NCand > 0) {
								rows[i] = append(rows[i], q)
							}
						}
					}
					checkSchedule(t, at, rows, func(row []SubQuery) (n int) {
						for _, q := range row {
							n += q.NCand
						}
						return n
					}, w, bound, calls, &st)
					for i := range own.Enc {
						if peer.N == 0 {
							break
						}
						sum := 0
						for g := own.Dead; g < gens; g++ {
							if c, ok := known[[2]int{i, g}]; ok && g < peer.pre[i] {
								sum += c
							}
						}
						for _, q := range rows[i] {
							sum += fake(q)
						}
						if count, upto := peer.Covered(i); count != sum || upto != gens {
							t.Errorf("%s: point %d cached %d up to generation %d, want %d up to %d", at, i, count, upto, sum, gens)
						}
					}
				}
			}
		}
		f.close(t)
	}
	if st.secondRounds == 0 || st.oversize == 0 || stale == 0 {
		t.Errorf("vacuous: %+v, %d caches held a stale count", st, stale)
	}
}
