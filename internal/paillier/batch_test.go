package paillier

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func batchTestKey(t *testing.T) *PrivateKey {
	t.Helper()
	key, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// batchPools is the pool matrix every batch test runs against: the
// nil handle (the solo-session default: the process-wide pool), a
// single-slot shared pool, and a wider shared pool.
func batchPools() map[string]*Pool {
	return map[string]*Pool{"nil": nil, "pool1": NewPool(1), "pool4": NewPool(4)}
}

func TestEncryptDecryptBatchRoundTrip(t *testing.T) {
	key := batchTestKey(t)
	vs := []int64{0, 1, -1, 1 << 40, -(1 << 40), 12345, -54321}
	for name, pool := range batchPools() {
		t.Run(name, func(t *testing.T) {
			cts, err := key.EncryptInt64Batch(pool, rand.Reader, vs)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := key.DecryptSignedBatch(pool, cts)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vs {
				if ms[i].Int64() != v {
					t.Errorf("batch[%d]: decrypted %v, want %d", i, ms[i], v)
				}
			}
			// Unsigned batch path.
			plain, err := key.DecryptBatch(pool, cts[:2])
			if err != nil {
				t.Fatal(err)
			}
			if plain[0].Sign() != 0 || plain[1].Cmp(big.NewInt(1)) != 0 {
				t.Errorf("DecryptBatch = %v, %v; want 0, 1", plain[0], plain[1])
			}
		})
	}
}

// serialReader fails the test when two Reads overlap: the batch contract
// is that the caller's reader is only ever used sequentially, on the
// calling goroutine, while the pool does the arithmetic.
type serialReader struct {
	t      *testing.T
	inRead atomic.Bool
}

func (r *serialReader) Read(p []byte) (int, error) {
	if !r.inRead.CompareAndSwap(false, true) {
		r.t.Error("random source read concurrently")
	}
	defer r.inRead.Store(false)
	runtime.Gosched() // widen the window a concurrent reader would hit
	return rand.Read(p)
}

// TestEncryptBatchReadsRandomSequentially covers both nonce paths: the
// owner's CRT draw and the peer's r are sampled before the fan-out.
func TestEncryptBatchReadsRandomSequentially(t *testing.T) {
	key := batchTestKey(t)
	vs := make([]int64, 32)
	for i := range vs {
		vs[i] = int64(i - 16)
	}
	pool := NewPool(4)
	for name, encrypt := range map[string]func(*Pool, io.Reader, []int64) ([]*big.Int, error){
		"owner":  key.EncryptInt64Batch,
		"public": key.PublicKey.EncryptInt64Batch,
	} {
		cts, err := encrypt(pool, &serialReader{t: t}, vs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ms, err := key.DecryptSignedBatch(pool, cts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range vs {
			if ms[i].Int64() != v {
				t.Errorf("%s batch[%d]: decrypted %v, want %d", name, i, ms[i], v)
			}
		}
	}
}

func TestEncryptBatchEmpty(t *testing.T) {
	key := batchTestKey(t)
	cts, err := key.EncryptBatch(nil, rand.Reader, nil)
	if err != nil || len(cts) != 0 {
		t.Fatalf("empty batch: %v, %v", cts, err)
	}
	ms, err := key.DecryptSignedBatch(NewPool(2), nil)
	if err != nil || len(ms) != 0 {
		t.Fatalf("empty decrypt batch: %v, %v", ms, err)
	}
}

func TestDecryptBatchPropagatesError(t *testing.T) {
	key := batchTestKey(t)
	bad := []*big.Int{big.NewInt(1), new(big.Int).Neg(big.NewInt(5))}
	if _, err := key.DecryptBatch(nil, bad); !errors.Is(err, ErrCiphertextRange) {
		t.Fatalf("error = %v, want ErrCiphertextRange", err)
	}
}

func TestParallelForFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	for name, pool := range batchPools() {
		t.Run(name, func(t *testing.T) {
			err := ParallelFor(pool, 100, func(i int) error {
				if i == 37 {
					return sentinel
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("error = %v, want sentinel", err)
			}
		})
	}
}

func TestParallelForCoversEveryIndex(t *testing.T) {
	for name, pool := range batchPools() {
		t.Run(name, func(t *testing.T) {
			const n = 257
			var hits [n]atomic.Int32
			if err := ParallelFor(pool, n, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("index %d executed %d times, want 1", i, got)
				}
			}
		})
	}
}

// TestPoolBoundsHelperGoroutines pins the server-sharing contract: across
// any number of concurrent ParallelFor calls on one Pool, at most
// Workers() helper goroutines run at once (the callers themselves always
// participate, so observed concurrency is ≤ callers + Workers()).
func TestPoolBoundsHelperGoroutines(t *testing.T) {
	const slots = 2
	const callers = 4
	pool := NewPool(slots)
	var active, peak atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ParallelFor(pool, 64, func(i int) error {
				cur := active.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				for s := 0; s < 2000; s++ {
					_ = s * s // busy work so workers overlap
				}
				active.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > callers+slots {
		t.Fatalf("peak concurrency %d exceeds callers %d + pool slots %d", got, callers, slots)
	}
}

// TestNilPoolSharesOneBound: a nil pool is one process-wide pool, not a
// fan-out per call, so concurrent nil-pool batches run at most Workers()
// helpers between them. Every call sleeps so that every worker a batch
// starts is inside fn at once; GOMAXPROCS is raised so that a per-call
// fan-out would overshoot the bound on any host.
func TestNilPoolSharesOneBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const callers = 4
	var active, peak atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ParallelFor(nil, 16, func(i int) error {
				cur := active.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				active.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	var p *Pool
	if got, bound := int(peak.Load()), callers+p.Workers(); got > bound {
		t.Fatalf("peak concurrency %d exceeds callers %d + the shared pool's %d slots", got, callers, p.Workers())
	}
}

func TestPoolWorkers(t *testing.T) {
	if got := NewPool(3).Workers(); got != 3 {
		t.Errorf("NewPool(3).Workers() = %d", got)
	}
	if got := NewPool(0).Workers(); got < 1 {
		t.Errorf("NewPool(0).Workers() = %d, want ≥ 1", got)
	}
	var p *Pool
	if got := p.Workers(); got < 1 {
		t.Errorf("(nil).Workers() = %d, want ≥ 1", got)
	}
}

// TestBatchPoolRace is the dedicated race-detector workload for the
// parallel Paillier pool: several goroutines hammer batch encryption and
// decryption on one shared key pair through one shared bounded Pool — the
// exact sharing shape of a multi-session server. It is cheap enough for
// short mode and is what `go test -race` (make verify) leans on.
func TestBatchPoolRace(t *testing.T) {
	key := batchTestKey(t)
	const goroutines = 4
	pool := NewPool(2)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vs := make([]int64, 16)
			for i := range vs {
				vs[i] = int64(g*100 + i - 8)
			}
			cts, err := key.EncryptInt64Batch(pool, rand.Reader, vs)
			if err != nil {
				errc <- err
				return
			}
			ms, err := key.DecryptSignedBatch(pool, cts)
			if err != nil {
				errc <- err
				return
			}
			for i, v := range vs {
				if ms[i].Int64() != v {
					errc <- errors.New("batch round trip mismatch under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
