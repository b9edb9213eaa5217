// Package dispatch is the cross-process serving tier: a dispatcher that
// accepts client connections, picks a backend shard by consistent
// hashing on the session key from the control preamble, and splices the
// handshake+mux byte stream through to one of N serve processes.
// Routing is protocol-transparent — after the admission preamble the
// dispatcher relays whole frames, so a shard (and the protocol above
// it) sees exactly the byte stream of a direct connection and labels,
// Ledgers, and comparison counts cannot depend on the route.
//
// The tier replaces the fixed per-process -max-sessions bound with
// load-based admission: the dispatcher tracks per-shard in-flight
// session counts and sheds before keygen — a typed refusal the client
// maps back to core.ErrServerFull/ErrDraining — instead of letting an
// overloaded shard accept a handshake it cannot serve. A health loop
// pings shards over the same control channel, removing dead shards from
// the ring and re-adding them when they recover; on shutdown the
// dispatcher pulls each shard's ManagerSnapshot and folds them into one
// fleet-wide rollup.
package dispatch

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring over named shards. Each shard owns
// `vnodes` points on the ring (hash of "name#i"); a key maps to the
// shard owning the first point at or after the key's hash. Virtual
// nodes smooth the key distribution and bound redistribution: adding or
// removing one shard only remaps the keys in that shard's arcs, leaving
// every other key's placement untouched.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	shards map[string]struct{}
}

type ringPoint struct {
	hash  uint64
	shard string
}

// DefaultVnodes is the per-shard virtual-node count used when the
// caller doesn't choose one.
const DefaultVnodes = 64

// NewRing builds an empty ring with the given virtual-node count per
// shard (≤ 0: DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, shards: make(map[string]struct{})}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV alone avalanches poorly on short, similar strings (shard names
	// and vnode suffixes differ in a byte or two), which clusters ring
	// points and skews arcs badly; a splitmix64-style finalizer fixes the
	// distribution without changing the cheap streaming hash.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a shard's virtual nodes. Adding a present shard is a no-op.
func (r *Ring) Add(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.shards[shard]; ok {
		return
	}
	r.shards[shard] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{ringHash(shard + "#" + strconv.Itoa(i)), shard})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a shard's virtual nodes. Removing an absent shard is a
// no-op.
func (r *Ring) Remove(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.shards[shard]; !ok {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Shards returns the current members in sorted order.
func (r *Ring) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Pick maps a key to its owning shard. ok is false on an empty ring.
func (r *Ring) Pick(key string) (shard string, ok bool) {
	w := r.Walk(key)
	if len(w) == 0 {
		return "", false
	}
	return w[0], true
}

// Walk returns every distinct shard in ring order starting from the
// key's owner — the failover order: if the owner is dead or full, the
// next shard in the walk is the deterministic second choice.
func (r *Ring) Walk(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]struct{}, len(r.shards))
	out := make([]string, 0, len(r.shards))
	for i := 0; i < len(r.points) && len(out) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.shard]; dup {
			continue
		}
		seen[p.shard] = struct{}{}
		out = append(out, p.shard)
	}
	return out
}
