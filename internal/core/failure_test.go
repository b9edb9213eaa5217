package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/partition"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// timeoutAfterProtocol gives a corrupted run ample time to finish or fail.
func timeoutAfterProtocol(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(60 * time.Second)
}

// Failure injection: protocols must fail cleanly — returning errors, not
// hanging or panicking — when the peer disappears or the wire corrupts.

// abruptCloseConn closes itself after passing through a fixed number of
// received messages.
type abruptCloseConn struct {
	transport.Conn
	remaining int
}

func (a *abruptCloseConn) Recv() ([]byte, error) {
	if a.remaining <= 0 {
		a.Conn.Close()
		return nil, transport.ErrClosed
	}
	a.remaining--
	return a.Conn.Recv()
}

// runWithDroppedConn runs a two-party protocol in which Alice's
// connection drops after afterMsgs received frames, at scheduler width w.
// Both parties must come back in bounded time, each with an error that
// names the closed connection — at every width a failed responder worker
// closes the session's channels (Pair.Serve's failAll), so neither
// side is left blocked in Recv.
func runWithDroppedConn(t *testing.T, name string, w, afterMsgs int, alice, bob func(transport.Conn, Config) error) {
	t.Helper()
	cfg := testCfg(compare.EngineMasked)
	cfg.Parallel = w
	ca, cb := transport.Pipe()
	flaky := &abruptCloseConn{Conn: ca, remaining: afterMsgs}
	errc := make(chan error, 2)
	go func() {
		err := alice(flaky, cfg)
		ca.Close()
		errc <- err
	}()
	go func() {
		err := bob(cb, cfg)
		cb.Close()
		errc <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, transport.ErrClosed) {
				t.Errorf("%s W=%d afterMsgs=%d: err = %v, want transport.ErrClosed", name, w, afterMsgs, err)
			}
		case <-timeoutAfterProtocol(t):
			t.Fatalf("%s W=%d afterMsgs=%d: protocol hung after the connection dropped", name, w, afterMsgs)
		}
	}
}

// wideHorizontal is a horizontal family whose Run has a middle to vanish
// in: 40 points a side, pruning off and full packing (whatever the
// configuration passed in says), so a driving pass is seven settle chunks
// of six frames — more than W = 4, every channel runs a second chunk.
func wideHorizontal() sessionFamily {
	const n = 40
	ptsA, ptsB := make([][]float64, n), make([][]float64, n)
	for i := range ptsA {
		ptsA[i], ptsB[i] = []float64{float64(i % 8), float64(i / 8)}, []float64{float64(7 - i%8), float64(i / 8)}
	}
	wide := func(cfg Config) Config {
		cfg.Pruning, cfg.Packing = PruneOff, PackFull
		return cfg
	}
	return sessionFamily{"horizontal",
		func(c transport.Conn, cfg Config) (*Session, error) {
			return NewHorizontalSession(c, wide(cfg), RoleAlice, ptsA)
		},
		func(c transport.Conn, cfg Config) (*Session, error) {
			return NewHorizontalSession(c, wide(cfg), RoleBob, ptsB)
		}}
}

// horizontalDropPoints places five connection drops inside a horizontal
// Run of more than W chunks a pass, counted in frames the initiator has
// received since the Run began. While she drives she receives two frames a
// chunk (the encrypted coordinates, the comparison reply), while she
// responds four (op, folded reply, comparison uplink, result bits) and the
// W done frames; the walk between them is local. The drops: inside the
// first chunk's MP (its op is out, the coordinates never arrive); between
// that chunk's MP and its comparison; half-way through her driving pass,
// where a channel is between two chunks; inside the first chunk she
// serves; and as late as both parties are still sure to be exchanging —
// the peer waits for no answer to a chunk's result bits or to a done
// frame, so with one frame more than those outstanding, whatever order the
// channels delivered in, one of them is a frame he does wait on.
func horizontalDropPoints(t *testing.T, w, run int) []int {
	t.Helper()
	chunks := (run - w) / 6
	if chunks*6+w != run || chunks <= w {
		t.Fatalf("the horizontal Run is %d received frames at W=%d: not more than W chunks a pass of 2 + 4 frames, plus W done frames", run, w)
	}
	return []int{0, 1, chunks, 2*chunks + 2, run - (chunks + w + 1)}
}

func TestHorizontalPeerDisappearsMidProtocol(t *testing.T) {
	fam := wideHorizontal()
	for _, w := range []int{1, 4} {
		est, run := cleanRunFrames(t, fam, parallelCfg(compare.EngineMasked, w, PruneGrid))
		for _, inRun := range horizontalDropPoints(t, w, run) {
			runWithDroppedConn(t, "horizontal", w, est+inRun,
				func(c transport.Conn, cfg Config) error {
					_, err := runOneShot(fam.newA(c, cfg))
					return err
				},
				func(c transport.Conn, cfg Config) error {
					_, err := runOneShot(fam.newB(c, cfg))
					return err
				})
		}
	}
}

// corruptingConn flips a byte in the nth received message.
type corruptingConn struct {
	transport.Conn
	n int
}

func (c *corruptingConn) Recv() ([]byte, error) {
	b, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	if c.n == 0 && len(b) > 0 {
		b = append([]byte{}, b...)
		b[len(b)/2] ^= 0xff
	}
	c.n--
	return b, nil
}

// Corrupting the handshake must produce an error on at least one side.
// Corrupting a later message (a ciphertext payload) is NOT detectable in
// the semi-honest model — the protocols carry no MACs, exactly like the
// paper's — so the only contract there is "no hang, no panic": the run
// either errors or completes (with garbage labels). Transport integrity is
// TCP's job.
func TestHandshakeCorruptionDetected(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	ca, cb := transport.Pipe()
	bad := &corruptingConn{Conn: ca, n: 0}
	errc := make(chan error, 2)
	go func() {
		_, err := HorizontalAlice(bad, cfg, testAlicePts)
		ca.Close()
		errc <- err
	}()
	go func() {
		_, err := HorizontalBob(cb, cfg, testBobPts)
		cb.Close()
		errc <- err
	}()
	err1, err2 := <-errc, <-errc
	if err1 == nil && err2 == nil {
		t.Error("corrupted handshake accepted by both parties")
	}
}

func TestPayloadCorruptionDoesNotHang(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	for msg := 1; msg <= 3; msg++ {
		ca, cb := transport.Pipe()
		bad := &corruptingConn{Conn: ca, n: msg}
		done := make(chan struct{})
		go func() {
			defer close(done)
			errc := make(chan error, 2)
			go func() {
				_, err := HorizontalAlice(bad, cfg, testAlicePts)
				ca.Close()
				errc <- err
			}()
			go func() {
				_, err := HorizontalBob(cb, cfg, testBobPts)
				cb.Close()
				errc <- err
			}()
			<-errc
			<-errc
		}()
		select {
		case <-done:
		case <-timeoutAfterProtocol(t):
			t.Fatalf("corrupting message %d: protocol hung", msg)
		}
	}
}

// cleanRunFrames runs fam once, undisturbed, and reports how many frames
// the initiating party receives while the session is established and how
// many inside the Run. In the vertical family the initiator holds the left
// operands, so the Run's count is one reply per chunk of the lockstep
// schedule — the drop points of the vanishing-peer tests are derived from
// it instead of being guessed.
func cleanRunFrames(t *testing.T, fam sessionFamily, cfg Config) (est, run int) {
	t.Helper()
	ca, cb := transport.Pipe()
	ma := transport.NewMeter(ca)
	err := transport.RunPair(ma, cb,
		func(transport.Conn) error {
			sess, err := fam.newA(ma, cfg)
			if err != nil {
				return err
			}
			est = int(ma.Stats().MessagesRecv)
			if _, err := sess.Run(); err != nil {
				return err
			}
			run = int(ma.Stats().MessagesRecv) - est
			return sess.Close()
		},
		func(c transport.Conn) error {
			sess, err := fam.newB(c, cfg)
			if err != nil {
				return err
			}
			if _, err := sess.Run(); err != nil {
				return err
			}
			if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
				return fmt.Errorf("serving side after the close op: %v", err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return est, run
}

// verticalDropPoints places three connection drops inside a vertical Run
// of more than W chunks, counted in frames the initiator has received
// since the Run began: at the first reply (the first uplink is out,
// nothing is decided), between two chunks of a channel, and at the last
// reply (its result frame never leaves).
func verticalDropPoints(t *testing.T, w, run int) []int {
	t.Helper()
	if run <= w {
		t.Fatalf("the vertical Run is %d chunks at W=%d: it has no middle to vanish in", run, w)
	}
	return []int{0, run / 2, run - 1}
}

func stockFamily(t *testing.T, name string) sessionFamily {
	t.Helper()
	for _, fam := range stockFamilies(t) {
		if fam.name == name {
			return fam
		}
	}
	t.Fatalf("no %s family", name)
	return sessionFamily{}
}

func TestVerticalPeerDisappears(t *testing.T) {
	fam := stockFamily(t, "vertical")
	for _, w := range []int{1, 4} {
		est, run := cleanRunFrames(t, fam, parallelCfg(compare.EngineMasked, w, PruneGrid))
		for _, inRun := range verticalDropPoints(t, w, run) {
			runWithDroppedConn(t, "vertical", w, est+inRun,
				func(c transport.Conn, cfg Config) error {
					_, err := runOneShot(fam.newA(c, cfg))
					return err
				},
				func(c transport.Conn, cfg Config) error {
					_, err := runOneShot(fam.newB(c, cfg))
					return err
				})
		}
	}
}

func TestVerticalRecordCountMismatch(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := VerticalAlice(c, cfg, [][]float64{{1}, {2}, {3}})
			return err
		},
		func(c transport.Conn) error {
			_, err := VerticalBob(c, cfg, [][]float64{{1}, {2}})
			return err
		},
	)
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("err = %v, want ErrHandshake", err)
	}
}

func TestArbitraryOwnershipDisagreement(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	values := [][]float64{{1, 2}, {3, 4}}
	a, b := partition.Alice, partition.Bob
	ownersA := [][]partition.Owner{{a, b}, {b, a}}
	ownersB := [][]partition.Owner{{a, a}, {b, b}} // different view
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := ArbitraryAlice(c, cfg, values, ownersA)
			return err
		},
		func(c transport.Conn) error {
			_, err := ArbitraryBob(c, cfg, values, ownersB)
			return err
		},
	)
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("err = %v, want ErrHandshake", err)
	}
}

func TestArbitraryShapeValidation(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	if _, err := ArbitraryAlice(conn, cfg, nil, nil); err == nil {
		t.Error("empty records accepted")
	}
	if _, err := ArbitraryAlice(conn, cfg, [][]float64{{1, 2}}, [][]partition.Owner{{partition.Alice}}); err == nil {
		t.Error("ragged ownership accepted")
	}
}

func TestHorizontalDimensionMismatchAcrossParties(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	err := transport.Run2(
		func(c transport.Conn) error {
			_, err := HorizontalAlice(c, cfg, [][]float64{{1, 2}})
			return err
		},
		func(c transport.Conn) error {
			_, err := HorizontalBob(c, cfg, [][]float64{{1, 2, 3}})
			return err
		},
	)
	if !errors.Is(err, ErrHandshake) {
		t.Errorf("err = %v, want ErrHandshake", err)
	}
}

func TestHorizontalCoordOutOfRange(t *testing.T) {
	cfg := testCfg(compare.EngineMasked) // MaxCoord 7
	conn, peer := transport.Pipe()
	defer conn.Close()
	defer peer.Close()
	if _, err := HorizontalAlice(conn, cfg, [][]float64{{100, 100}}); err == nil {
		t.Error("out-of-grid coordinate accepted")
	}
	if _, err := HorizontalAlice(conn, cfg, [][]float64{{-1, 0}}); err == nil {
		t.Error("negative coordinate accepted")
	}
}

// vanishingConn closes itself once its budget of received frames is spent.
// The budget can be set while the connection is in use — so the peer can
// be made to vanish inside a Run, whatever establishment took.
type vanishingConn struct {
	transport.Conn
	remaining atomic.Int64
}

func (v *vanishingConn) Recv() ([]byte, error) {
	if v.remaining.Add(-1) < 0 {
		v.Conn.Close()
		return nil, transport.ErrClosed
	}
	return v.Conn.Recv()
}

// TestSessionPeerVanishesMidRun: the initiating party's connection dies
// inside a Run over a delayed link — the state in which the nonce filler is
// at work beside the protocol. Both parties get the typed error in bounded
// time, every goroutine the sessions started (mux readers, workers, nonce
// fillers) is gone, and the sessions are closed for good.
func TestSessionPeerVanishesMidRun(t *testing.T) {
	for _, fam := range []sessionFamily{wideHorizontal(), stockFamily(t, "vertical")} {
		for _, w := range []int{1, 4} {
			cfg := parallelCfg(compare.EngineMasked, w, PruneGrid)
			// A Run is a handful of chunks, not a frame per query or per
			// neighbourhood: the drop points follow from its measured length.
			_, run := cleanRunFrames(t, fam, cfg)
			drops := verticalDropPoints(t, w, run)
			if fam.name == "horizontal" {
				drops = horizontalDropPoints(t, w, run)
			}
			for _, afterMsgs := range drops {
				label := fmt.Sprintf("%s W=%d afterMsgs=%d", fam.name, w, afterMsgs)
				before := runtime.NumGoroutine()
				ca, cb := transport.LatencyPipe(time.Millisecond)
				flaky := &vanishingConn{Conn: ca}
				flaky.remaining.Store(math.MaxInt64)
				var sessions [2]*Session
				var ready sync.WaitGroup
				ready.Add(2)
				errc := make(chan error, 2)
				party := func(p int, conn transport.Conn, open func(transport.Conn, Config) (*Session, error)) {
					sess, err := open(conn, cfg)
					sessions[p] = sess
					ready.Done()
					if err == nil {
						ready.Wait()
						if p == 0 {
							flaky.remaining.Store(int64(afterMsgs))
						}
						_, err = sess.Run()
					}
					conn.Close()
					errc <- err
				}
				go party(0, flaky, fam.newA)
				go party(1, cb, fam.newB)
				for i := 0; i < 2; i++ {
					select {
					case err := <-errc:
						if !errors.Is(err, transport.ErrClosed) {
							t.Errorf("%s: err = %v, want transport.ErrClosed", label, err)
						}
					case <-timeoutAfterProtocol(t):
						t.Fatalf("%s: Run hung after the connection dropped", label)
					}
				}
				testutil.CheckNoLeak(t, before, label)
				for p, sess := range sessions {
					if sess == nil {
						t.Fatalf("%s: party %d never established", label, p)
					}
					if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
						t.Errorf("%s: party %d: Run on the failed session = %v, want ErrSessionClosed", label, p, err)
					}
					if st := sess.NonceStats(); st.Produced != st.Hits+st.Discarded {
						t.Errorf("%s: party %d: stock %+v does not balance after the failure", label, p, st)
					}
				}
				testutil.CheckNoLeak(t, before, label+" after the refused Run")
			}
		}
	}
}
