package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dbscan"
	"repro/internal/transport"
)

// The query scheduler. Every protocol family, the ring and the mesh run
// their secure sub-protocols on it, through one driver per protocol shape.
// WaveDrive (below) is the horizontal shape's and the only
// cluster-expansion loop in this package. The basic protocol and the mesh
// run it in two steps — settle, then walk: Pair.Settle (settle.go) decides
// every region sub-query the walk will need up front, dealing its chunks
// over the W channels, and the walk then reads the cache, at width one and
// without a frame. The enhanced protocol's core decision cannot be settled
// ahead (it depends on the dataset sizes), so its waves carry live
// queries: WaveDrive dispatches independent core queries in waves of up to
// W. LockstepCluster (lockstep.go) is the pair shape's — the vertical and
// arbitrary families and the multiparty ring — and has no waves: it
// settles the whole pair matrix up front, dealing its chunks over the W
// channels, and then clusters with dbscan.ClusterGeneric, the plaintext
// oracle's loop. Config.Parallel = W is the width of all three:
// independent sub-protocols run on the session's W worker channels and
// overlap their round trips. W = 1 runs inline on the calling goroutine
// over the session's single bare connection, with no multiplexer and no
// pipelining.
//
// Soundness rests on two invariants:
//
//   - Determinism of the schedule. Which queries form a wave, which pairs
//     or sub-queries form a chunk, and which channel carries each are pure
//     functions of protocol state (labels and the queue; the caches, the
//     cell matrix or directories and the engine's frame size), never of
//     goroutine timing — so in the jointly-computed families every
//     participant runs the same schedule and the worker-channel traffic
//     pairs up exactly, and a settle chunk's responder is told its content
//     by the chunk's op frame.
//   - Query independence. Nothing is run early that would not be run at
//     any width: every entry of Algorithm 4's seed queue is eventually
//     queried exactly once and every own point is queried at least once,
//     so every sub-query the count cache leaves open is settled — in
//     exactly one chunk; and Algorithm 6 queries every point, so every
//     pair the index and the cache leave undecided reaches the oracle —
//     in exactly one chunk. The multiset of executed sub-protocols — and
//     therefore every count-based Ledger class, the comparison totals,
//     and the labels — does not depend on W; only frame interleaving and
//     the responder's permutation draws do. The parallel equivalence
//     harness enforces this.
//
// Compute discipline: the workers of a wave or of a chunk schedule are I/O
// waiters — they MUST all run concurrently (each worker channel's traffic
// pairs with the peer's matching worker, so capping them below W could
// deadlock the lockstep families) and are therefore never scheduled on the
// crypto pool. The CPU-heavy work inside them — batch encryption,
// decryption, homomorphic arithmetic — reaches the pool through the engine
// and mpc handles that carry the Pair's pool: on a multi-session server
// all W workers of all sessions contend for the SessionManager's one
// bounded pool (Config.Pool) instead of fanning out W·GOMAXPROCS
// goroutines per session.

// runWave executes n jobs concurrently — one wave's queries, or the n
// workers of a lockstep chunk schedule — and waits for all (a single job
// runs inline, with no goroutine). It returns the first root-cause error:
// when one worker fails and tears the channels down (Pair.Serve's
// failAll), its siblings fail with induced connection-closed errors, so
// non-ErrClosed errors take precedence.
func runWave(n int, f func(t int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = f(t)
		}(t)
	}
	wg.Wait()
	var closed error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, transport.ErrClosed) {
			if closed == nil {
				closed = err
			}
			continue
		}
		return err
	}
	return closed
}

// WaveDrive runs a full Algorithm 3/4 driving pass over n own points —
// the one cluster-expansion loop of the horizontal shape: the
// cluster-seed decision runs alone (its successor is unknown until it
// settles), then each expansion round takes up to `workers` queue items —
// all of which Algorithm 4 queries at any width — and decides them
// concurrently, one worker slot each. Queue pops, label writes, and
// appends happen in Algorithm 4's order, so labels do not depend on
// workers. decide answers the remote half of one core decision on worker
// slot w: given ownCount own-side neighbours, is the point a core point?
// The enhanced protocol maps a slot to one session channel (the
// share–select–compare core bit); the basic protocol and the mesh, whose
// decisions read a settled cache, run at width one.
func WaveDrive(n, workers int, localRQ func(int) []int, decide func(worker, point, ownCount int) (bool, error)) ([]int, int, error) {
	if workers < 1 {
		return nil, 0, fmt.Errorf("core: worker width %d < 1", workers)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = dbscan.Unclassified
	}
	clusterID := 0
	for i := 0; i < n; i++ {
		if labels[i] != dbscan.Unclassified {
			continue
		}
		expanded, err := waveExpand(workers, localRQ, decide, i, clusterID+1, labels)
		if err != nil {
			return nil, 0, err
		}
		if expanded {
			clusterID++
		}
	}
	return labels, clusterID, nil
}

// waveExpand is Algorithm 4's expansion with wave prefetch, plus wave
// pipelining for W > 1: while wave k's workers wait on their replies, the
// same goroutines issue the uplinks of wave k+1's queries. The pipelined
// queries are sound for the same reason the wave itself is: after wave k
// is popped, the head of the remaining queue is a prefix of wave k+1 no
// matter what wave k decides — Algorithm 4 queries every queued point
// exactly once, label state never cancels a queued query, and
// discoveries only append. Core-ness depends only on the point and its
// local neighbour count, so a prefetched decision equals the in-order
// one; its labels are applied in queue order on the next iteration. The
// query multiset, comparison counts, and every Ledger class are
// unchanged — only round trips overlap. At W = 1 there is nothing to
// pipeline: each wave is one query, decided inline.
func waveExpand(workers int, localRQ func(int) []int, decide func(worker, point, ownCount int) (bool, error), point, clusterID int, labels []int) (bool, error) {
	seeds := localRQ(point)
	core, err := decide(0, point, len(seeds))
	if err != nil {
		return false, err
	}
	if !core {
		labels[point] = dbscan.Noise
		return false, nil
	}
	for _, sd := range seeds {
		labels[sd] = clusterID
	}
	queue := make([]int, 0, len(seeds))
	for _, sd := range seeds {
		if sd != point {
			queue = append(queue, sd)
		}
	}
	// pre buffers decisions pipelined by the previous wave for the current
	// queue head, in queue order: pre[i] decided what is now queue[i].
	type preDecision struct {
		pt   int
		rqs  []int
		core bool
	}
	var pre []preDecision
	for len(queue) > 0 {
		w := workers
		if w > len(queue) {
			w = len(queue)
		}
		wave := queue[:w:w]
		queue = queue[w:]
		rqs := make([][]int, w)
		cores := make([]bool, w)
		fresh := make([]bool, w) // wave[t] still needs a live query
		for t, pt := range wave {
			if len(pre) > 0 && pre[0].pt == pt {
				rqs[t], cores[t] = pre[0].rqs, pre[0].core
				pre = pre[1:]
			} else {
				rqs[t] = localRQ(pt)
				fresh[t] = true
			}
		}
		// Pipelined prefix of wave k+1. Non-empty only when w == workers
		// (otherwise the queue just drained), so nxt[t] always has a
		// same-index worker below.
		var nxt []int
		var nxtRqs [][]int
		if workers > 1 && len(queue) > 0 {
			k := workers
			if k > len(queue) {
				k = len(queue)
			}
			nxt = queue[:k:k]
			nxtRqs = make([][]int, k)
			for t, pt := range nxt {
				nxtRqs[t] = localRQ(pt)
			}
		}
		nxtCores := make([]bool, len(nxt))
		if err := runWave(w, func(t int) error {
			if fresh[t] {
				c, err := decide(t, wave[t], len(rqs[t]))
				if err != nil {
					return err
				}
				cores[t] = c
			}
			if t < len(nxt) {
				c, err := decide(t, nxt[t], len(nxtRqs[t]))
				if err != nil {
					return err
				}
				nxtCores[t] = c
			}
			return nil
		}); err != nil {
			return false, err
		}
		for t, pt := range nxt {
			pre = append(pre, preDecision{pt: pt, rqs: nxtRqs[t], core: nxtCores[t]})
		}
		for t := range wave {
			if !cores[t] {
				continue
			}
			for _, r := range rqs[t] {
				if labels[r] == dbscan.Unclassified || labels[r] == dbscan.Noise {
					if labels[r] == dbscan.Unclassified {
						queue = append(queue, r)
					}
					labels[r] = clusterID
				}
			}
		}
	}
	return true, nil
}

// OpServer answers one op frame of a driving pass on a responder worker:
// conn is the worker's channel, rng its permutation source, r the frame
// after its op code.
type OpServer = func(conn transport.Conn, rng PermSource, r *transport.Reader) error

// Serve runs the pair's W responder workers, one per channel, each
// answering a driving pass's op frames with the server registered for
// their op code until its channel's done op (whose own server, if one is
// registered, reads what the frame carries). On a worker error every
// worker channel is closed so siblings blocked in Recv unwind instead of
// deadlocking.
func (s *Pair) Serve(opTag string, ops map[uint64]OpServer) error {
	conns := s.Conns
	var closeOnce sync.Once
	failAll := func() {
		closeOnce.Do(func() {
			for _, c := range conns {
				c.Close()
			}
		})
	}
	return runWave(len(conns), func(w int) error {
		rng := s.channelRng(w)
		conn := conns[w]
		for {
			setTag(conn, opTag)
			r, err := transport.RecvMsg(conn)
			if err != nil {
				failAll()
				return fmt.Errorf("core: responder recv op: %w", err)
			}
			got := r.Uint()
			switch serve := ops[got]; {
			case r.Err() != nil:
				err = r.Err()
			case serve != nil:
				err = serve(conn, rng, r)
			case got != opDone:
				err = fmt.Errorf("core: responder got unexpected op %d on %s", got, opTag)
			}
			if err != nil {
				failAll()
				return err
			}
			if got == opDone {
				return nil
			}
		}
	})
}

// SendDone releases the peer's responder workers at the end of a driving
// pass. report, if any, rides on channel 0's done frame: what the driver
// tells the responder's opDone server about the pass as a whole.
func (s *Pair) SendDone(tag string, report ...uint64) error {
	for w, c := range s.Conns {
		msg := transport.NewBuilder().PutUint(opDone)
		if w == 0 {
			for _, v := range report {
				msg.PutUint(v)
			}
		}
		setTag(c, tag)
		if err := transport.SendMsg(c, msg); err != nil {
			return err
		}
	}
	return nil
}
