package paillier

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded, process-shared worker pool for the CPU-heavy
// big-integer arithmetic of the crypto layers (Paillier modular
// exponentiation, YMPP's RSA decryption range, the homomorphic batch
// ops). One server process holding N concurrent sessions hands every
// session the same Pool, so the total number of crypto worker
// goroutines stays bounded by the pool size instead of growing as
// N·GOMAXPROCS — N sessions contend for the shared slots rather than
// oversubscribing the CPU.
//
// A nil *Pool is valid everywhere a pool handle is accepted and is the
// solo-session default: each batch fans out over min(GOMAXPROCS, n)
// workers of its own, right for a session that owns the whole process.
//
// Deadlock freedom: the calling goroutine always participates in its
// own batch, and helper slots are acquired without blocking — a
// saturated pool degrades a batch to sequential execution on the
// caller, it never waits on slots held by other sessions.
type Pool struct {
	sem chan struct{}
}

// NewPool builds a pool bounded at `workers` concurrent helper slots;
// workers < 1 selects GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's helper-slot bound.
func (p *Pool) Workers() int {
	if p == nil {
		return runtime.GOMAXPROCS(0)
	}
	return cap(p.sem)
}

// hold takes one helper slot for a background goroutine of the caller's
// own, waiting until a slot is free, and reports false — no slot taken —
// if stop closed first. A nil pool has no bound to count against, so only
// stop is looked at. Every true is paired with one release.
func (p *Pool) hold(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	if p == nil {
		return true
	}
	select {
	case <-stop:
		return false
	case p.sem <- struct{}{}:
		return true
	}
}

func (p *Pool) release() {
	if p != nil {
		<-p.sem
	}
}

// ParallelFor runs fn(0..n-1) across the caller plus as many pool
// helpers as are free (nil pool: min(GOMAXPROCS, n) workers) and
// returns the first error (remaining work is abandoned on error). fn
// must not touch shared mutable state; index-sliced outputs are safe.
func ParallelFor(p *Pool, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(0)
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		firstEr error
		wg      sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			if err := fn(i); err != nil {
				failed.Store(true)
				mu.Lock()
				if firstEr == nil {
					firstEr = err
				}
				mu.Unlock()
				return
			}
		}
	}
	if p == nil {
		helpers := runtime.GOMAXPROCS(0)
		if helpers > n {
			helpers = n
		}
		for h := 1; h < helpers; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
	} else {
		// Try-acquire keeps the process-wide crypto goroutine count at
		// the pool bound and never blocks the caller on other sessions.
	acquire:
		for h := 1; h < n; h++ {
			select {
			case p.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-p.sem }()
					work()
				}()
			default:
				break acquire
			}
		}
	}
	work()
	wg.Wait()
	return firstEr
}
