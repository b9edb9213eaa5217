package core

import (
	"fmt"
	"slices"
)

// SelectionKind chooses the §5 k-th order statistic algorithm. The paper
// describes both: a scan that extracts the minimum k times (O(kn)
// comparisons, "appropriate when the k is small") and a quicksort-based
// selection (expected O(n), worst case O(n²)).
type SelectionKind string

// The two selection strategies of §5.
const (
	SelectionScan  SelectionKind = "scan"
	SelectionQuick SelectionKind = "quickselect"
)

// ParseSelection validates a selection strategy name.
func ParseSelection(s string) (SelectionKind, error) {
	switch SelectionKind(s) {
	case SelectionScan, SelectionQuick:
		return SelectionKind(s), nil
	}
	return "", fmt.Errorf("core: unknown selection strategy %q (want %q or %q)", s, SelectionScan, SelectionQuick)
}

// selector is one k-th smallest selection over n hidden values as a step
// machine: pairs holds its next round of questions "value(x) ≤ value(y)?"
// (nil once idx holds the answer), and feed advances it by their answers.
// Both parties run the same machine from the same n and k, so their rounds
// pair up without a frame saying what they hold. A round is every
// independent comparison of one selection step:
//
//   - scan: each of the k minimum extractions is a knockout tournament over
//     the items left, one round of adjacent pairs per level (an odd item
//     out goes through), so m items cost m − 1 comparisons — the paper's
//     O(kn) count — in ⌈log₂ m⌉ rounds;
//   - quickselect: one round per partition step, every item of the
//     sub-range against its last, the pivot — deterministic, so both
//     parties partition identically.
//
// A tie may resolve to another index than the paper's linear scan picks,
// but only among items of equal value, so the k-th order value — all
// either party acts on — is the same.
type selector struct {
	kind             SelectionKind
	k                int   // scan: extractions left; quickselect: the rank sought in items
	items            []int // scan: the items not yet extracted; quickselect: the sub-range
	field            []int // scan: the open tournament's survivors
	pairs            [][2]int
	idx, comparisons int
}

func newSelector(n, k int, kind SelectionKind) (*selector, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: selection k=%d outside [1,%d]", k, n)
	}
	if kind != SelectionScan && kind != SelectionQuick {
		return nil, fmt.Errorf("core: unknown selection strategy %q", kind)
	}
	s := &selector{kind: kind, k: k, items: make([]int, n)}
	for i := range s.items {
		s.items[i] = i
	}
	s.step()
	return s, nil
}

// step sets pairs to the next round, settling on the way every step that
// needs no comparison.
func (s *selector) step() {
	if s.kind == SelectionQuick {
		if len(s.items) == 1 {
			s.idx, s.pairs = s.items[0], nil
			return
		}
		pivot := s.items[len(s.items)-1]
		s.pairs = make([][2]int, len(s.items)-1)
		for t, it := range s.items[:len(s.items)-1] {
			s.pairs[t] = [2]int{it, pivot}
		}
		return
	}
	for len(s.field) < 2 {
		if len(s.field) == 1 {
			// A tournament is decided: its winner is the next minimum.
			s.idx = s.field[0]
			pos := slices.Index(s.items, s.idx)
			s.items = slices.Delete(s.items, pos, pos+1)
			if s.k--; s.k == 0 {
				s.pairs = nil
				return
			}
		}
		s.field = slices.Clone(s.items)
	}
	s.pairs = make([][2]int, 0, len(s.field)/2)
	for t := 0; t+1 < len(s.field); t += 2 {
		s.pairs = append(s.pairs, [2]int{s.field[t], s.field[t+1]})
	}
}

// feed answers the round in pairs, one bit per pair, and moves on.
func (s *selector) feed(bits []bool) {
	s.comparisons += len(bits)
	if s.kind == SelectionQuick {
		pivot := s.items[len(s.items)-1]
		var lows, highs []int
		for t, pr := range s.pairs {
			if bits[t] {
				lows = append(lows, pr[0])
			} else {
				highs = append(highs, pr[0])
			}
		}
		switch {
		case s.k <= len(lows):
			s.items = lows
		case s.k == len(lows)+1:
			s.idx, s.pairs = pivot, nil
			return
		default:
			s.k -= len(lows) + 1
			s.items = highs
		}
	} else {
		next := make([]int, 0, (len(s.field)+1)/2)
		for t, pr := range s.pairs {
			if bits[t] {
				next = append(next, pr[0])
			} else {
				next = append(next, pr[1])
			}
		}
		if len(s.field)%2 == 1 {
			next = append(next, s.field[len(s.field)-1])
		}
		s.field = next
	}
	s.step()
}

// selectRows runs one selection per row in lockstep: row r picks the
// ks[r]-th smallest of its ns[r] values, which sit at flat positions
// offs[r], offs[r]+1, … of all rows laid end to end. Each round is one ask
// call carrying every unfinished row's next pairs, rows in order, named by
// flat position, with rows[t] the row of pair t. It returns each row's
// pick as a flat position, and the comparisons all rows took.
func selectRows(kind SelectionKind, ks, ns []int, ask func(pairs [][2]int, rows []int) ([]bool, error)) (kth []int, comparisons int, err error) {
	sels := make([]*selector, len(ks))
	offs := make([]int, len(ks))
	off := 0
	for r := range sels {
		if sels[r], err = newSelector(ns[r], ks[r], kind); err != nil {
			return nil, 0, err
		}
		offs[r], off = off, off+ns[r]
	}
	for {
		var pairs [][2]int
		var rows []int
		for r, sel := range sels {
			for _, pr := range sel.pairs {
				pairs = append(pairs, [2]int{offs[r] + pr[0], offs[r] + pr[1]})
				rows = append(rows, r)
			}
		}
		if len(pairs) == 0 {
			break
		}
		bits, err := ask(pairs, rows)
		if err != nil {
			return nil, 0, err
		}
		if len(bits) != len(pairs) {
			return nil, 0, fmt.Errorf("core: selection round returned %d results for %d pairs", len(bits), len(pairs))
		}
		for _, sel := range sels {
			if n := len(sel.pairs); n > 0 {
				sel.feed(bits[:n])
				bits = bits[n:]
			}
		}
	}
	kth = make([]int, len(sels))
	for r, sel := range sels {
		kth[r] = offs[r] + sel.idx
		comparisons += sel.comparisons
	}
	return kth, comparisons, nil
}

// CountSelectionComparisons runs a selection strategy over plaintext
// values and reports how many comparisons it consumed. In the enhanced
// protocol every comparison is a full secure sub-protocol, so this count
// is the communication cost model for experiment E9.
func CountSelectionComparisons(k int, kind SelectionKind, vals []int64) (int, error) {
	_, comparisons, err := selectRows(kind, []int{k}, []int{len(vals)}, func(pairs [][2]int, _ []int) ([]bool, error) {
		bits := make([]bool, len(pairs))
		for t, pr := range pairs {
			bits[t] = vals[pr[0]] <= vals[pr[1]]
		}
		return bits, nil
	})
	return comparisons, err
}
