package paillier

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"sync"
)

// stockCap is the shelf's capacity and therefore the most a stock can ever
// throw away. One lockstep wave of a W = 4 session asks its responder for
// a dozen or two reply nonces; a shelf of a few waves covers every burst
// the benchmark workloads produce and holds 16 kB at 1024-bit keys.
const stockCap = 64

// NonceStock keeps a short shelf of ready nonces y = r^n mod n² for one
// public key, so that a peer's encryption can pay g^m·y — one
// multiplication — where it would otherwise raise r^n between receiving a
// frame and answering it. The nonce does not depend on the data, only on
// the key; the stock moves the exponentiation to a time the processor
// would have spent waiting for the wire. See "and when it may be raised"
// in the package comment for why nothing but time changes.
//
// A stock is attached to its key when it is built; from then on Encrypt,
// EncryptBatch and Randomize on that *PublicKey take from the shelf first
// and fall back to drawing and raising their own nonce when it is empty.
// One filler goroutine restocks it between StartFiller and StopFiller and
// at no other time. Production is bounded by consumption: every take,
// served or not, puts one nonce on order, orders beyond the capacity are
// dropped, and the filler raises what is on order and then sleeps — it
// never works ahead of demand, so at most the last round's worth is left
// over when the owner stops asking.
type NonceStock struct {
	pk   *PublicKey
	pool *Pool

	mu       sync.Mutex
	shelf    [stockCap]*big.Int // ready nonces: shelf[head], … — ready of them
	head     int
	ready    int
	ordered  int // takes the filler has not yet answered; ready + ordered ≤ stockCap
	hits     uint64
	misses   uint64
	produced uint64

	// wake holds at most one token: something was ordered since the filler
	// last looked.
	wake chan struct{}
	// stop and done belong to the running filler; nil while none runs.
	// Only StartFiller and StopFiller touch them, and their caller runs
	// them serially.
	stop, done chan struct{}
}

// NonceStats are a stock's counters. Hits and Misses split the nonces
// asked for by whether the shelf had one; Produced is what the filler
// raised; Discarded is what was produced and will never be used — the
// shelf's contents once the owner has ended (see Stats).
type NonceStats struct {
	Hits, Misses, Produced, Discarded uint64
}

// NewNonceStock builds an empty stock for pk and attaches it: encryptions
// under pk consult it from now on. pk must not be in use by another
// goroutine yet. The filler's exponentiations count against pool (nil: no
// bound to count against). No goroutine runs until StartFiller.
func NewNonceStock(pk *PublicKey, pool *Pool) *NonceStock {
	s := &NonceStock{pk: pk, pool: pool, wake: make(chan struct{}, 1)}
	pk.stock = s
	return s
}

// take hands out the oldest ready nonce — each entry leaves the shelf
// exactly once — or nil when there is none, and puts one on order either
// way. A nil stock has nothing to hand out.
func (s *NonceStock) take() *big.Int {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var y *big.Int
	if s.ready > 0 {
		y, s.shelf[s.head] = s.shelf[s.head], nil
		s.head = (s.head + 1) % stockCap
		s.ready--
		s.hits++
	} else {
		s.misses++
	}
	if s.ready+s.ordered < stockCap {
		s.ordered++
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return y
}

// StartFiller starts the goroutine that raises what is on order, including
// what an earlier run left on order. Call StopFiller before the next
// StartFiller. A nil stock starts nothing.
func (s *NonceStock) StartFiller() {
	if s == nil {
		return
	}
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go s.fill(s.stop, s.done)
}

// StopFiller stops the filler and returns once it has exited — after at
// most the one exponentiation it was in the middle of. What is on the
// shelf stays for the next StartFiller.
func (s *NonceStock) StopFiller() {
	if s == nil || s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
}

// fill is the filler: restock, sleep until something is ordered, again.
func (s *NonceStock) fill(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for s.restock(stop) {
		select {
		case <-stop:
			return
		case <-s.wake:
		}
	}
}

// restock raises one nonce per order until nothing is on order (true) or
// stop closes (false). It holds a pool slot for each exponentiation and
// yields the processor after it, so a worker the wire has just woken, or a
// frame's delivery timer, waits for one exponentiation at most.
func (s *NonceStock) restock(stop <-chan struct{}) bool {
	for s.onOrder() {
		if !s.pool.hold(stop) {
			return false
		}
		seed, err := s.pk.drawUnit(rand.Reader)
		var y *big.Int
		if err == nil {
			y = s.pk.raiseNonce(seed)
		}
		s.pool.release()
		if err != nil {
			// No randomness, no stock: every later take misses and reports
			// the error from its own draw.
			return false
		}
		s.put(y)
		runtime.Gosched()
	}
	return true
}

// onOrder reports whether the filler owes a nonce.
func (s *NonceStock) onOrder() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ordered > 0
}

// put shelves one produced nonce against its order.
func (s *NonceStock) put(y *big.Int) {
	s.mu.Lock()
	s.shelf[(s.head+s.ready)%stockCap] = y
	s.ready++
	s.ordered--
	s.produced++
	s.mu.Unlock()
}

// Stats returns the counters. ended says that the owner will take no
// more, which is what turns the shelf's contents into Discarded; until
// then they are stock for the next run and Discarded reads zero. A nil
// stock reports zeros.
func (s *NonceStock) Stats(ended bool) NonceStats {
	if s == nil {
		return NonceStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := NonceStats{Hits: s.hits, Misses: s.misses, Produced: s.produced}
	if ended {
		st.Discarded = uint64(s.ready)
	}
	return st
}
