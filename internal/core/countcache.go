package core

// CountCache is the cross-run cache of HDP-style region counts under a
// sliding window: for each own point it remembers, per protocol run, the
// secure count obtained over a contiguous generation range of the peer's
// index. The HDP exchange only ever discloses the *total* over the
// generations it queried — never a per-generation split — so the cache
// stores exactly those run-sized segments. A fresh query sums the
// surviving segments that still start at the window's live edge and runs
// its cryptographic phases over the uncovered suffix only.
//
// Expiry is what the segment structure is for: when generations die, a
// cumulative count over [0, gens) would have to be discarded whole, but a
// segment list drops only the segments that start before the new live
// edge — counts obtained after the expired prefix keep serving. Under
// steady windowed streaming (append one, expire one, run) every run's
// fresh count becomes one segment, so the next run re-pays only the new
// generation.
//
// Generation indices here are in each stream's own numbering (the mesh
// keeps per-edge caches); callers remap with Remap when their numbering
// compacts. The cache is not goroutine-safe: the PeerGens that owns it
// serialises wave workers' accesses with its own mutex.
type CountCache struct {
	m map[int][]CountSeg
}

// CountSeg is one cached secure count: the peer-generation range
// [From, To) it covers and the neighbour count found there.
type CountSeg struct {
	From, To, Count int
}

// NewCountCache builds an empty cache.
func NewCountCache() *CountCache {
	return &CountCache{m: make(map[int][]CountSeg)}
}

// Covered reports how much of point i's count the cache still answers
// given that generations before liveFrom are dead: the summed count of
// the contiguous segment chain starting exactly at liveFrom, and the
// first generation the chain does not reach (the query's fromGen
// watermark). Segments entirely before liveFrom are dropped; a segment
// straddling liveFrom is dropped too — its count includes dead points
// and cannot be split. Segments after a coverage hole are kept: the
// live edge only moves forward, and a later expiry can make them the
// head of the chain.
func (c *CountCache) Covered(i, liveFrom int) (count, upto int) {
	segs := c.m[i]
	keep := segs[:0]
	for _, s := range segs {
		if s.To <= liveFrom || (s.From < liveFrom && liveFrom < s.To) {
			continue
		}
		keep = append(keep, s)
	}
	if len(keep) == 0 {
		delete(c.m, i)
	} else {
		c.m[i] = keep
	}
	upto = liveFrom
	for _, s := range keep {
		if s.From != upto {
			break
		}
		count += s.Count
		upto = s.To
	}
	return count, upto
}

// Extend records a fresh secure count over [from, to). Any existing
// segment starting at or after from is subsumed by the new one (a fresh
// query always runs to the current last generation) and removed first,
// so the chain stays free of overlaps.
func (c *CountCache) Extend(i, from, to, count int) {
	if to <= from {
		return
	}
	segs := c.m[i][:0]
	for _, s := range c.m[i] {
		if s.From >= from {
			continue
		}
		segs = append(segs, s)
	}
	c.m[i] = append(segs, CountSeg{From: from, To: to, Count: count})
}

// Remap rewrites the cache after the *own* side's indices compact: own
// points [0, drop) expired, so their entries vanish and every surviving
// point's entry shifts down by drop. Peer-generation ranges inside the
// segments are untouched — they are in the peer's absolute numbering.
func (c *CountCache) Remap(drop int) {
	if drop == 0 {
		return
	}
	next := make(map[int][]CountSeg, len(c.m))
	for i, segs := range c.m {
		if i < drop {
			continue
		}
		next[i-drop] = segs
	}
	c.m = next
}

// RetractOwn rewrites the cache after a point-level retraction on the
// *own* side: the entries of the retracted own points vanish (their
// counts describe records that no longer exist) and every surviving
// point's entry shifts down by its rank, mirroring the global index
// compaction. ids are strictly ascending in the pre-retraction live
// numbering.
func (c *CountCache) RetractOwn(ids []int) {
	if len(ids) == 0 {
		return
	}
	remap := retractRemap(ids)
	next := make(map[int][]CountSeg, len(c.m))
	for i, segs := range c.m {
		if j, ok := remap(i); ok {
			next[j] = segs
		}
	}
	c.m = next
}

// DropGens invalidates every segment whose range covers a generation in
// gens — the peer-side half of retraction invalidation. A cached count
// over [From, To) silently includes any peer point retracted from a
// generation inside that range, so the whole segment is stale; unlike
// expiry there is no live-edge ordering to exploit, the affected
// segments simply die and the next query re-derives those generations.
func (c *CountCache) DropGens(gens map[int]bool) {
	if len(gens) == 0 {
		return
	}
	for i, segs := range c.m {
		keep := segs[:0]
		for _, s := range segs {
			stale := false
			for g := s.From; g < s.To; g++ {
				if gens[g] {
					stale = true
					break
				}
			}
			if !stale {
				keep = append(keep, s)
			}
		}
		if len(keep) == 0 {
			delete(c.m, i)
		} else {
			c.m[i] = keep
		}
	}
}

// Len reports how many own points have cached segments.
func (c *CountCache) Len() int { return len(c.m) }
