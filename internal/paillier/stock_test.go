package paillier

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// stockedKey returns a test key, the copy of its public half a peer would
// hold, and a stock attached to that copy.
func stockedKey(t testing.TB, bits int, pool *Pool) (*PrivateKey, *PublicKey, *NonceStock) {
	t.Helper()
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := UnmarshalPublicKey(MarshalPublicKey(&sk.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	return sk, pub, NewNonceStock(pub, pool)
}

// order asks the stock for k nonces, discarding what it hands out, so that
// up to k are on order.
func order(s *NonceStock, k int) {
	for i := 0; i < k; i++ {
		s.take()
	}
}

// TestStockedEncryptIsPaillier: a ciphertext blinded off the shelf is an
// ordinary Paillier ciphertext — it decrypts to m on both decryption paths
// and its nonce is an n-th residue (y^λ ≡ 1 mod n²).
func TestStockedEncryptIsPaillier(t *testing.T) {
	sk, pub, stock := stockedKey(t, 256, nil)
	const k = 6
	order(stock, k)
	if !stock.restock(nil) {
		t.Fatal("restock gave up")
	}
	ms := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(123456), new(big.Int).Sub(pub.PlaintextBound(), one)}
	cts, err := pub.EncryptBatch(nil, rand.Reader, ms)
	if err != nil {
		t.Fatal(err)
	}
	single, err := pub.Encrypt(rand.Reader, big.NewInt(-77))
	if err != nil {
		t.Fatal(err)
	}
	ms, cts = append(ms, big.NewInt(-77)), append(cts, single)
	if st := stock.Stats(false); st.Hits != k || st.Misses != k || st.Produced != k {
		t.Fatalf("stats %+v: want %d hits after %d ordering misses", st, k, k)
	}
	for i, c := range cts {
		got, err := sk.DecryptSigned(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(ms[i]) != 0 {
			t.Errorf("ciphertext %d decrypts to %v, want %v", i, got, ms[i])
		}
		if slow := sk.DecodeSigned(sk.decryptSlow(c)); slow.Cmp(ms[i]) != 0 {
			t.Errorf("ciphertext %d: textbook decryption gives %v, want %v", i, slow, ms[i])
		}
		// y = c·g^{−m}; g^{−m} = 1 − m·n mod n².
		enc, err := pub.Encode(new(big.Int).Neg(ms[i]))
		if err != nil {
			t.Fatal(err)
		}
		y := pub.encryptEncoded(enc, c)
		if y.Cmp(one) == 0 {
			t.Errorf("ciphertext %d carries nonce 1", i)
		}
		if y.Exp(y, sk.Lambda, sk.NSquared).Cmp(one) != 0 {
			t.Errorf("ciphertext %d: nonce is not an n-th residue", i)
		}
	}
	// The shelf is empty again: the next encryption raises its own nonce
	// and still decrypts.
	c, err := pub.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sk.DecryptSigned(c); got.Int64() != 5 {
		t.Errorf("missed encryption decrypts to %v, want 5", got)
	}
	if st := stock.Stats(false); st.Misses != k+1 {
		t.Errorf("stats %+v: want one more miss on an empty shelf", st)
	}
}

// TestStockServesEachNonceOnce: eight goroutines take while the filler
// restocks; no entry — by identity or by value — reaches two of them. A
// nonce used twice would let the peer divide two ciphertexts and read the
// difference of their plaintexts.
func TestStockServesEachNonceOnce(t *testing.T) {
	_, _, stock := stockedKey(t, 256, nil)
	stock.StartFiller()
	const takers, each = 8, 40 // every taker keeps asking until it was served each nonces
	got := make([][]*big.Int, takers)
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < takers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for len(got[g]) < each && time.Now().Before(deadline) {
				if y := stock.take(); y != nil {
					got[g] = append(got[g], y)
				}
				runtime.Gosched()
			}
		}(g)
	}
	wg.Wait()
	stock.StopFiller()
	byPtr := make(map[*big.Int]bool)
	byVal := make(map[string]bool)
	for _, ys := range got {
		for _, y := range ys {
			if byPtr[y] || byVal[y.String()] {
				t.Fatalf("a stocked nonce was handed out twice")
			}
			byPtr[y], byVal[y.String()] = true, true
		}
	}
	st := stock.Stats(true)
	if len(byPtr) != takers*each || int(st.Hits) != len(byPtr) {
		t.Errorf("stats %+v: %d nonces received, want %d", st, len(byPtr), takers*each)
	}
	if st.Produced != st.Hits+st.Discarded {
		t.Errorf("stats %+v: produced ≠ hits + discarded", st)
	}
}

// TestStockNeverOutrunsDemand: the filler produces only against takes. At
// every observation — concurrent with bursts of takes of every size up to
// three shelves — produced ≤ taken and at most stockCap sit unused; left
// alone after an oversized burst, the shelf settles at exactly stockCap.
func TestStockNeverOutrunsDemand(t *testing.T) {
	_, _, stock := stockedKey(t, 256, nil)
	check := func() NonceStats {
		st := stock.Stats(true)
		if st.Produced > st.Hits+st.Misses {
			t.Fatalf("stats %+v: the filler ran ahead of demand", st)
		}
		if st.Discarded > stockCap || st.Produced-st.Hits != st.Discarded {
			t.Fatalf("stats %+v: more than %d outstanding, or the books do not balance", st, stockCap)
		}
		return st
	}
	if !stock.restock(nil) || check().Produced != 0 {
		t.Fatal("a stock nobody took from produced")
	}
	stock.StartFiller()
	for _, burst := range []int{1, 3, stockCap - 1, stockCap, 3 * stockCap, 7, 0, 2} {
		order(stock, burst)
		for i := 0; i < 50; i++ {
			check()
			runtime.Gosched()
		}
	}
	stock.StopFiller()
	check()
	order(stock, 3*stockCap)
	if !stock.restock(nil) {
		t.Fatal("restock gave up")
	}
	if st := check(); st.Discarded != stockCap {
		t.Errorf("stats %+v: after an oversized burst the shelf holds %d, want %d", st, st.Discarded, stockCap)
	}
}

// TestStockStopJoinsFiller: StopFiller returns, in bounded time, from every
// state the filler can be in — raising, asleep beside a full shelf, waiting
// for a slot of a saturated pool — and the goroutine is gone afterwards;
// takes after it order but nothing is produced until the next StartFiller.
func TestStockStopJoinsFiller(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(1)
	_, _, stock := stockedKey(t, 512, pool)
	stopWithin := func(state string) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			stock.StopFiller()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("StopFiller hung with the filler %s", state)
		}
		testutil.CheckNoLeak(t, before, "filler "+state)
	}

	order(stock, stockCap)
	stock.StartFiller()
	stopWithin("raising")

	if !stock.restock(nil) {
		t.Fatal("restock gave up")
	}
	if st := stock.Stats(true); st.Discarded != stockCap {
		t.Fatalf("stats %+v: shelf not full", st)
	}
	stock.StartFiller()
	stopWithin("asleep beside a full shelf")

	order(stock, 4)
	pool.sem <- struct{}{} // another session holds the pool's only slot
	stock.StartFiller()
	stopWithin("waiting for a pool slot")
	<-pool.sem

	produced := stock.Stats(false).Produced
	order(stock, 4)
	if st := stock.Stats(false); st.Produced != produced {
		t.Errorf("stats %+v: produced moved from %d with no filler running", st, produced)
	}
	stock.StopFiller() // a second stop is a no-op
	if len(pool.sem) != 0 {
		t.Error("the filler left a pool slot held")
	}
}

// TestStockCountsAgainstPool: every exponentiation of the filler holds one
// slot of the session's pool, so a saturated pool stalls it.
func TestStockCountsAgainstPool(t *testing.T) {
	pool := NewPool(1)
	_, _, stock := stockedKey(t, 256, pool)
	pool.sem <- struct{}{}
	order(stock, 3)
	stock.StartFiller()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	if st := stock.Stats(false); st.Produced != 0 {
		t.Errorf("stats %+v: produced without a pool slot", st)
	}
	<-pool.sem
	deadline := time.Now().Add(10 * time.Second)
	for stock.Stats(false).Produced < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stock.StopFiller()
	if st := stock.Stats(false); st.Produced != 3 {
		t.Errorf("stats %+v: want the 3 ordered nonces once the slot was free", st)
	}
}
