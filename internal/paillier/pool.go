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
// solo-session default: it stands for one process-wide pool, NewPool(0),
// made on first use, so batches from any number of nil-pool callers
// share GOMAXPROCS helper slots.
//
// Deadlock freedom: ParallelFor is the only taker of slots, the calling
// goroutine always participates in its own batch, and helper slots are
// acquired without blocking — a saturated pool degrades a batch to
// sequential execution on the caller, it never waits on slots held by
// other sessions.
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

// defaultPool is the pool a nil *Pool stands for.
var defaultPool = sync.OnceValue(func() *Pool { return NewPool(0) })

// orDefault resolves a nil pool to the process-wide default.
func (p *Pool) orDefault() *Pool {
	if p == nil {
		return defaultPool()
	}
	return p
}

// Workers reports the pool's helper-slot bound.
func (p *Pool) Workers() int {
	return cap(p.orDefault().sem)
}

// ParallelFor runs fn(0..n-1) across the caller plus as many pool
// helpers as are free and returns the first error (remaining work is
// abandoned on error). fn must not touch shared mutable state;
// index-sliced outputs are safe.
func ParallelFor(p *Pool, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(0)
	}
	p = p.orDefault()
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
	// Try-acquire keeps the process-wide crypto goroutine count at the
	// pool bound and never blocks the caller on other sessions.
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
	work()
	wg.Wait()
	return firstEr
}
