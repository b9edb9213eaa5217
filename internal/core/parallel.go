package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/transport"
)

// The query scheduler. Every protocol family, the ring and the mesh run
// a driving pass in two steps — settle, then walk — and every walk is
// dbscan's ExpandCluster, the one cluster-expansion loop in the
// repository. The settle step decides up front everything the walk will
// ask the peer, dealing the work over the W worker channels; the walk then
// runs locally, at width one and without a frame. Every settle step deals
// its work by one schedule, settleSchedule (lockstep.go): whole rows in
// chunks, chunk c on channel c mod W. The horizontal shape settles per own
// point: the basic protocol and the mesh decide every region sub-query the
// count cache does not answer (Pair.Settle, settle.go), the enhanced
// protocol every own point's core bit (settleEnhanced, enhanced.go), and
// the walk is dbscan.ClusterCore with the peer's half of the density test
// read back from what was settled. The pair shape — the vertical and
// arbitrary families and the multiparty ring — settles the whole pair
// matrix (LockstepCluster, lockstep.go) and clusters with
// dbscan.ClusterGeneric.
// Config.Parallel = W is the width of every settle step: independent
// sub-protocols run on the session's W worker channels and overlap their
// round trips. W = 1 runs inline on the calling goroutine over the
// session's single bare connection, with no multiplexer.
//
// Soundness rests on two invariants:
//
//   - Determinism of the schedule. Which sub-queries, points or pairs form
//     a chunk, and which channel carries each, are pure functions of
//     protocol state (the caches, the cell matrix or directories and the
//     engine's frame size), never of goroutine timing — so in the
//     jointly-computed families every participant runs the same schedule
//     and the worker-channel traffic pairs up exactly, and a settle chunk's
//     responder is told its content by the chunk's op frame.
//   - Query independence. Nothing is settled that the walk would not ask
//     at any width. Algorithm 4 queries every own point at least once, and
//     what a query asks the peer — the point against the peer's candidates
//     and, in the enhanced protocol, k = MinPts − |own neighbours| — depends
//     on no label, so every sub-query the count cache leaves open is
//     settled in exactly one chunk and every core bit the cache does not
//     answer exactly once; Algorithm 6 queries every point, so every pair
//     the index and the cache leave undecided reaches the oracle — in
//     exactly one chunk. The multiset of executed sub-protocols — and
//     therefore every count-based Ledger class, the comparison totals, and
//     the labels — does not depend on W; only frame interleaving and the
//     responder's permutation draws do. The parallel equivalence harness
//     enforces this.
//
// Compute discipline: the workers of a settle step are I/O waiters — they
// MUST all run concurrently (each worker channel's traffic pairs with the
// peer's matching worker, so capping them below W could deadlock the
// lockstep families) and are therefore never scheduled on the crypto
// pool. The CPU-heavy work inside them — batch encryption, decryption,
// homomorphic arithmetic — reaches the pool through the engine and mpc
// handles that carry the Pair's pool: on a multi-session server all W
// workers of all sessions contend for the SessionManager's one bounded
// pool (Config.Pool) instead of fanning out W·GOMAXPROCS goroutines per
// session.

// runWave executes n jobs concurrently — the n workers of a settle step,
// or a pass's n responder workers — and waits for all (a single job
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

// OpServer answers one op frame of a driving pass on a responder worker:
// ch is the worker's channel (Pair.Conns[ch]), rng its permutation source,
// r the frame after its op code.
type OpServer = func(ch int, rng PermSource, r *transport.Reader) error

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
				err = serve(w, rng, r)
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
