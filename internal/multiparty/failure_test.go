package multiparty

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/paillier"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/yao"
)

// Peer failure on the mesh, mirroring core's failure_test.go: a party
// that disappears mid-Run must cost every other party one typed error in
// bounded time — never a hang, labels, or a leaked goroutine.

// edgeDropper closes all of one party's mesh edges once the party has
// received its budget of frames.
type edgeDropper struct {
	remaining atomic.Int64
	edges     []transport.Conn
}

type droppingConn struct {
	transport.Conn
	d *edgeDropper
}

func (c *droppingConn) Recv() ([]byte, error) {
	if c.d.remaining.Add(-1) < 0 {
		for _, e := range c.d.edges {
			e.Close()
		}
		return nil, transport.ErrClosed
	}
	return c.Conn.Recv()
}

func TestMeshPeerDisappearsMidRun(t *testing.T) {
	const k, victim = 3, 1
	for _, w := range []int{1, 4} {
		// The victim receives 14 frames in a whole Run at W = 1 (20 at W =
		// 4), the last few after its peers' final replies: drop well before.
		for _, afterMsgs := range []int64{0, 3, 8} {
			before := runtime.NumGoroutine()
			cfg := Config{
				Eps: 2, MinPts: 3, MaxCoord: 7, PaillierBits: 256, RSABits: 256,
				Engine: compare.EngineMasked, Parallel: w,
			}
			mesh := NewLocalMesh(k)
			drop := &edgeDropper{}
			drop.remaining.Store(math.MaxInt64) // armed once every session is established
			for q, c := range mesh[victim] {
				if q != victim {
					drop.edges = append(drop.edges, c)
					mesh[victim][q] = &droppingConn{Conn: c, d: drop}
				}
			}
			results := make([]*HorizontalResult, k)
			errs := make([]error, k)
			var established, done sync.WaitGroup
			established.Add(k)
			done.Add(k)
			for p := 0; p < k; p++ {
				go func(p int) {
					defer done.Done()
					// Each party closes its edges when it returns, as runMesh does.
					defer func() {
						for q, c := range mesh[p] {
							if q != p {
								c.Close()
							}
						}
					}()
					ms, err := NewMeshSession(HorizontalParty{Index: p, K: k, Conns: mesh[p]}, cfg, threePartyPoints[p])
					established.Done()
					if err != nil {
						errs[p] = err
						return
					}
					established.Wait()
					if p == victim {
						drop.remaining.Store(afterMsgs)
					}
					results[p], errs[p] = ms.Run()
				}(p)
			}
			finished := make(chan struct{})
			go func() {
				done.Wait()
				close(finished)
			}()
			select {
			case <-finished:
			case <-time.After(60 * time.Second):
				t.Fatalf("W=%d afterMsgs=%d: mesh hung after party %d dropped", w, afterMsgs, victim)
			}
			for p, err := range errs {
				if !errors.Is(err, transport.ErrClosed) {
					t.Errorf("W=%d afterMsgs=%d party %d: err = %v, want transport.ErrClosed", w, afterMsgs, p, err)
				}
				if results[p] != nil {
					t.Errorf("W=%d afterMsgs=%d party %d: returned labels", w, afterMsgs, p)
				}
			}
			testutil.CheckNoLeak(t, before, fmt.Sprintf("W=%d afterMsgs=%d", w, afterMsgs))
		}
	}
}

// Disagreement on the ring: one table over the five users of
// state.circulate — the handshake token, the cell-row circulation, and
// the append / expire / retract agreements — with the odd party out at
// the coordinator, in the middle and at the end of the ring. Every party
// must come back with an error in bounded time, leak nothing, and (where
// a session was established) refuse every later call: the ring is
// desynchronised.
func TestRingDisagreementFailsEveryParty(t *testing.T) {
	const k = 3
	cols := func(g, p int) [][]float64 { return splitColumns(ringWindowGens[g], k)[p] }
	rows := []struct {
		name string
		cfg  func(cfg Config, odd bool) Config            // establishment-time disagreement
		op   func(rs *RingSession, p int, odd bool) error // disagreement on a live session (two generations)
	}{
		{name: "handshake parameter", cfg: func(cfg Config, odd bool) Config {
			if odd {
				cfg.MinPts++
			}
			return cfg
		}},
		{name: "cell-row count", op: func(rs *RingSession, p int, odd bool) error {
			// Unreachable through Append, whose count agreement runs first:
			// drive the circulation the way Append does.
			batch := rs.st.enc[:2]
			if odd {
				batch = batch[:1]
			}
			return rs.guard.Do(func() (bool, error) {
				_, err := rs.st.circulateCells(batch)
				return true, err
			})
		}},
		{name: "append count", op: func(rs *RingSession, p int, odd bool) error {
			batch := cols(2, p)
			if odd {
				batch = batch[:1]
			}
			return rs.Append(batch)
		}},
		{name: "expire generations", op: func(rs *RingSession, p int, odd bool) error {
			if odd {
				return rs.Expire(2)
			}
			return rs.Expire(1)
		}},
		{name: "retract ids", op: func(rs *RingSession, p int, odd bool) error {
			if odd {
				return rs.Retract([]int{1})
			}
			return rs.Retract([]int{2})
		}},
	}
	for _, w := range []int{1, 4} {
		for _, row := range rows {
			for odd := 0; odd < k; odd++ {
				label := fmt.Sprintf("%s W=%d odd=%d", row.name, w, odd)
				before := runtime.NumGoroutine()
				parties := NewLocalRing(k)
				errs := make([]error, k)
				var done sync.WaitGroup
				for p := 0; p < k; p++ {
					done.Add(1)
					go func(p int) {
						defer done.Done()
						defer parties[p].Next.Close()
						defer parties[p].Prev.Close()
						cfg := testCfg(compare.EngineMasked)
						cfg.Parallel = w
						if row.cfg != nil {
							cfg = row.cfg(cfg, p == odd)
						}
						rs, err := NewRingSession(parties[p], cfg, cols(0, p))
						if row.op == nil {
							if err == nil {
								errs[p] = errExpected("mismatched establishment succeeded")
							}
							return
						}
						if err == nil {
							err = rs.Append(cols(1, p))
						}
						if err != nil {
							errs[p] = err
							return
						}
						if err := row.op(rs, p, p == odd); err == nil {
							errs[p] = errExpected("disagreement went unnoticed")
						} else if _, err := rs.Run(); !errors.Is(err, core.ErrSessionClosed) {
							errs[p] = errExpected("follow-up Run: " + fmt.Sprint(err))
						}
					}(p)
				}
				finished := make(chan struct{})
				go func() {
					done.Wait()
					close(finished)
				}()
				select {
				case <-finished:
				case <-time.After(60 * time.Second):
					t.Fatalf("%s: ring hung", label)
				}
				for p, err := range errs {
					if err != nil {
						t.Errorf("%s party %d: %v", label, p, err)
					}
				}
				testutil.CheckNoLeak(t, before, label)
			}
		}
	}
}

// TestRingHandshakeRSAFollowsEngine: the coordinator generates an RSA pair,
// and the token carries it, exactly under the YMPP engine — where the ring
// then runs its comparisons on it; under masked the token's RSA fields are
// empty and no party holds an RSA half.
func TestRingHandshakeRSAFollowsEngine(t *testing.T) {
	const k = 3
	points := gridData(t, 12, 3, 11)
	for _, engine := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		cfg := testCfg(engine)
		parties := NewLocalRing(k)
		sessions := make([]*RingSession, k)
		results := make([]*Result, k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for p := 0; p < k; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer parties[p].Next.Close()
				defer parties[p].Prev.Close()
				if sessions[p], errs[p] = NewRingSession(parties[p], cfg, splitColumns(points, k)[p]); errs[p] == nil {
					results[p], errs[p] = sessions[p].Run()
				}
			}(p)
		}
		wg.Wait()
		want := oracle(t, cfg, points)
		for p, err := range errs {
			if err != nil {
				t.Fatalf("%s party %d: %v", engine, p, err)
			}
			if !metrics.ExactMatch(results[p].Labels, want.Labels) {
				t.Errorf("%s party %d: labels diverge from plain DBSCAN", engine, p)
			}
			st := sessions[p].st
			wantKey, wantPub := engine == compare.EngineYMPP && p == 0, engine == compare.EngineYMPP
			if (st.rsaKey != nil) != wantKey || (st.rsaPub != nil) != wantPub {
				t.Errorf("%s party %d: rsaKey present %v, rsaPub present %v; want %v, %v",
					engine, p, st.rsaKey != nil, st.rsaPub != nil, wantKey, wantPub)
			}
		}
	}
}

// TestRingTokenRejectsCoordinatorKeys is core's TestHandshakeRejectsPeerKeys
// on the ring token: the test plays the coordinator of a two-party ring
// and sends an otherwise agreeing token whose key fields do not fit the
// agreed engine or cannot be keys. The party answers ErrHandshake
// (wrapping the key package's error where there is one) and forwards
// nothing.
func TestRingTokenRejectsCoordinatorKeys(t *testing.T) {
	pai, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	rsa, err := yao.GenerateRSAKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	paiPub := paillier.MarshalPublicKey(&pai.PublicKey)
	rsaN, rsaE := yao.MarshalRSAPublicKey(&rsa.RSAPublicKey)
	attrs := [][]float64{{1}, {2}, {3}}
	for _, tc := range []struct {
		name               string
		engine             compare.EngineKind
		paiPub, rsaN, rsaE []byte
		cause              error
	}{
		{name: "masked, RSA key present", engine: compare.EngineMasked, paiPub: paiPub, rsaN: rsaN, rsaE: rsaE},
		{name: "ympp, RSA key absent", engine: compare.EngineYMPP, paiPub: paiPub},
		{name: "ympp, 33-bit RSA exponent", engine: compare.EngineYMPP, paiPub: paiPub, rsaN: rsaN, rsaE: []byte{1, 0, 0, 0, 1}, cause: yao.ErrPublicKey},
		{name: "masked, oversized Paillier modulus", engine: compare.EngineMasked, paiPub: make([]byte, 1<<20), cause: paillier.ErrPublicKey},
	} {
		cfg := testCfg(tc.engine)
		cc, err := cfg.core()
		if err != nil {
			t.Fatal(err)
		}
		params, err := cc.Params()
		if err != nil {
			t.Fatal(err)
		}
		ring := NewLocalRing(2)
		tok := handshakeToken{
			version: ringHandshakeVersion, params: params, count: len(attrs), dimSum: 1, k: 2,
			paiPub: tc.paiPub, rsaN: tc.rsaN, rsaE: tc.rsaE,
		}
		// The pipe buffers: the token is queued before the party starts.
		if err := transport.SendMsg(ring[0].Next, encodeToken(tok)); err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := NewRingSession(ring[1], cfg, attrs)
			ring[1].Next.Close()
			errc <- err
		}()
		select {
		case err = <-errc:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: party hung on the token", tc.name)
		}
		if !errors.Is(err, ErrHandshake) || (tc.cause != nil && !errors.Is(err, tc.cause)) {
			t.Errorf("%s: error = %v, want ErrHandshake wrapping %v", tc.name, err, tc.cause)
		}
		if _, err := ring[0].Prev.Recv(); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("%s: the party forwarded a frame (%v), want a closed edge", tc.name, err)
		}
	}
}
