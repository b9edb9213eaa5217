package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/spatial"
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

// wideEnhancedPoints are an enhanced pair whose passes are five chunks
// each under enhancedWide: Alice holds four copies of each point of
// {0, 3, 6}², Bob four of each of {1, 4, 7}² but (7, 7). No two locations
// of a side lie within Eps = 2, so every point has four own neighbours and,
// at MinPts 5, asks its peer for k = 1 more — a query of all the peer's
// points, 32 or 36, eight or seven to a chunk of 256. Alice's (6, 6) has no
// peer point in range and is the one non-core location.
func wideEnhancedPoints() (ptsA, ptsB [][]float64) {
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			for range 4 {
				if x%3 == 0 && y%3 == 0 {
					ptsA = append(ptsA, []float64{float64(x), float64(y)})
				}
				if x%3 == 1 && y%3 == 1 && x+y < 14 {
					ptsB = append(ptsB, []float64{float64(x), float64(y)})
				}
			}
		}
	}
	return ptsA, ptsB
}

// enhancedWide is the configuration wideEnhancedPoints are laid out for,
// whatever the one passed in says: MinPts 5, pruning off, full packing.
func enhancedWide(cfg Config) Config {
	cfg.MinPts, cfg.Pruning, cfg.Packing = 5, PruneOff, PackFull
	return cfg
}

// wideEnhanced is the enhanced family on wideEnhancedPoints.
func wideEnhanced() sessionFamily {
	ptsA, ptsB := wideEnhancedPoints()
	return sessionFamily{"enhanced",
		func(c transport.Conn, cfg Config) (*Session, error) {
			return NewEnhancedHorizontalSession(c, enhancedWide(cfg), RoleAlice, ptsA)
		},
		func(c transport.Conn, cfg Config) (*Session, error) {
			return NewEnhancedHorizontalSession(c, enhancedWide(cfg), RoleBob, ptsB)
		}}
}

// enhancedDropPoints places four connection drops inside an enhanced Run,
// read off the tags of the frames the initiator receives in a clean W = 1
// Run (cleanRunFrames): while she drives, a chunk brings her its share
// reply, one reply a selection round and the final reply; while she
// responds, a chunk's op, E(a) uplink, both frames of every round and of
// the final batch from the driver; then the done frame. The drops: inside
// her first chunk's share exchange (its E(a) is out, the replies never
// arrive); between that chunk's first two selection rounds; inside its
// final batch; and half-way through the pass she serves. At W = 4 the
// channels interleave, so the same counts land in the same stretch of the
// Run rather than on the same frame.
func enhancedDropPoints(t *testing.T, trace []string) []int {
	t.Helper()
	share := slices.Index(trace, "enh.share")
	firstRound := slices.Index(trace, "enh.select")
	final := slices.Index(trace, "enh.final")
	served := slices.Index(trace, "enh.op")
	if share != 0 || firstRound != 1 || trace[2] != "enh.select" || final <= 2 || served <= final || served >= len(trace)-2 {
		t.Fatalf("the enhanced Run receives %v: not a driving pass of share reply, several selection rounds and a final reply, then a pass to serve", trace)
	}
	return []int{share, firstRound + 1, final, served + (len(trace)-served)/2}
}

func TestHorizontalPeerDisappearsMidProtocol(t *testing.T) {
	fam := wideHorizontal()
	for _, w := range []int{1, 4} {
		est, run := cleanRunFrames(t, fam, parallelCfg(compare.EngineMasked, w, PruneGrid))
		for _, inRun := range horizontalDropPoints(t, w, len(run)) {
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
// the initiating party receives while the session is established and,
// frame by frame, what it receives inside the Run: the Meter tag each one
// was read under, which at W = 1 — the Meter is then the pair's one
// channel — names its protocol phase. In the vertical family the initiator
// holds the left operands, so the Run's count is one reply per chunk of
// the lockstep schedule — the drop points of the vanishing-peer tests are
// derived from it instead of being guessed.
func cleanRunFrames(t *testing.T, fam sessionFamily, cfg Config) (est int, run []string) {
	t.Helper()
	ca, cb := transport.Pipe()
	trace := &tagTrace{Conn: ca}
	ma := transport.NewMeter(trace)
	trace.meter = ma
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
			run = trace.tags[est:int(ma.Stats().MessagesRecv)]
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

// tagTrace records the tag of its Meter as each frame is received.
type tagTrace struct {
	transport.Conn
	meter *transport.Meter
	tags  []string
}

func (c *tagTrace) Recv() ([]byte, error) {
	b, err := c.Conn.Recv()
	if err == nil {
		c.tags = append(c.tags, c.meter.Tag())
	}
	return b, err
}

// verticalDropPoints places three connection drops inside a vertical Run
// at cfg over latencyVertical's records, counted in frames the initiator
// has received since the Run began — one a chunk (run, measured) — at the
// first reply (the first uplink is out, nothing is decided), between the
// planner's first wave and its second (every bit of the first is decided,
// the second is planned from them), and at the last reply (its result
// frame never leaves). The wave boundary comes from the planner's
// plaintext replay (replayRun), which must take at least two waves and
// account for every frame.
func verticalDropPoints(t *testing.T, cfg Config, run int) []int {
	t.Helper()
	want := replayRun(t, cfg, latencyVertical(), NewPairCache())
	if len(want.waves) < 2 {
		t.Fatalf("the vertical Run is %d wave(s) at W=%d: it has no point between two waves to vanish at", len(want.waves), cfg.Parallel)
	}
	if run != want.chunks() {
		t.Fatalf("the vertical Run received %d frames at W=%d, the replay deals %d chunks", run, cfg.Parallel, want.chunks())
	}
	return []int{0, len(waveChunks(want.waves[0], want.bound)), run - 1}
}

// latencyVertical is the vertical family's records: 80 points in three
// loose blobs on the 8 × 8 grid, on which a Run takes several waves of
// the planner at W = 1 and W = 4 alike.
func latencyVertical() [][]float64 {
	d, _ := dataset.Quantize(dataset.Blobs(80, 3, 2, 7), 8)
	return d.Points
}

// latencyFamilies binds the four two-party families to data on which every
// one of them puts ciphertexts under the peer's key on the wire (the blob
// sample, except that the enhanced family asks nothing remote on it and
// takes the grid fixture). The vertical family takes latencyVertical: its
// Run takes several waves of the lockstep planner (verticalDropPoints
// asserts it), so a Run has a point between two waves to vanish at.
func latencyFamilies(t *testing.T) []sessionFamily {
	t.Helper()
	blobs, _ := dataset.Quantize(dataset.Blobs(24, 2, 0.4, 7), 8)
	hsplit, err := partition.HorizontalRandom(blobs.Points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	vsplit, err := partition.Vertical(latencyVertical(), 1)
	if err != nil {
		t.Fatal(err)
	}
	asplit, err := partition.ArbitraryRandom(blobs.Points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	return []sessionFamily{
		{"horizontal",
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewHorizontalSession(c, cfg, RoleAlice, hsplit.Alice)
			},
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewHorizontalSession(c, cfg, RoleBob, hsplit.Bob)
			}},
		{"enhanced",
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewEnhancedHorizontalSession(c, cfg, RoleAlice, testAlicePts)
			},
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewEnhancedHorizontalSession(c, cfg, RoleBob, testBobPts)
			}},
		{"vertical",
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewVerticalSession(c, cfg, RoleAlice, vsplit.Alice)
			},
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewVerticalSession(c, cfg, RoleBob, vsplit.Bob)
			}},
		{"arbitrary",
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewArbitrarySession(c, cfg, RoleAlice, asplit.Alice, asplit.Owners)
			},
			func(c transport.Conn, cfg Config) (*Session, error) {
				return NewArbitrarySession(c, cfg, RoleBob, asplit.Bob, asplit.Owners)
			}},
	}
}

// runOverLatency establishes fam over a 1 ms LatencyPipe, runs it once,
// closes it and returns both parties' sessions.
func runOverLatency(t *testing.T, fam sessionFamily, cfg Config) (a, b *Session) {
	t.Helper()
	ca, cb := transport.LatencyPipe(time.Millisecond)
	err := transport.RunPair(ca, cb,
		func(c transport.Conn) (err error) {
			if a, err = fam.newA(c, cfg); err != nil {
				return err
			}
			if _, err = a.Run(); err != nil {
				return err
			}
			return a.Close()
		},
		func(c transport.Conn) (err error) {
			if b, err = fam.newB(c, cfg); err != nil {
				return err
			}
			if _, err = b.Run(); err != nil {
				return err
			}
			if _, err = b.Run(); !errors.Is(err, ErrSessionClosed) {
				return fmt.Errorf("serving side after the close op: %v", err)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func latencyFamily(t *testing.T, name string) sessionFamily {
	t.Helper()
	for _, fam := range latencyFamilies(t) {
		if fam.name == name {
			return fam
		}
	}
	t.Fatalf("no %s family", name)
	return sessionFamily{}
}

func TestVerticalPeerDisappears(t *testing.T) {
	fam := latencyFamily(t, "vertical")
	for _, w := range []int{1, 4} {
		cfg := parallelCfg(compare.EngineMasked, w, PruneGrid)
		est, run := cleanRunFrames(t, fam, cfg)
		for _, inRun := range verticalDropPoints(t, cfg, len(run)) {
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
// inside a Run over a delayed link. Both parties get the typed error in
// bounded time, every goroutine the sessions started (mux readers,
// workers) is gone, and the sessions are closed for good.
func TestSessionPeerVanishesMidRun(t *testing.T) {
	for _, fam := range []sessionFamily{wideHorizontal(), latencyFamily(t, "vertical"), wideEnhanced()} {
		for _, w := range []int{1, 4} {
			cfg := parallelCfg(compare.EngineMasked, w, PruneGrid)
			// A Run is a handful of chunks, not a frame per query or per
			// neighbourhood: the drop points follow from its measured length
			// or, for the enhanced family, from what it receives at W = 1.
			_, run := cleanRunFrames(t, fam, cfg)
			var drops []int
			switch fam.name {
			case "horizontal":
				drops = horizontalDropPoints(t, w, len(run))
			case "enhanced":
				_, serial := cleanRunFrames(t, fam, parallelCfg(compare.EngineMasked, 1, PruneGrid))
				drops = enhancedDropPoints(t, serial)
			default:
				drops = verticalDropPoints(t, cfg, len(run))
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
				}
				testutil.CheckNoLeak(t, before, label+" after the refused Run")
			}
		}
	}
}

// TestResponderRefusesPrunedWholeSpan: a hostile driver announces a pruned
// query whose candidate cells pad to the whole span it names — under
// pruning "off", the one cell of the one-cell grid, which an honest driver
// never announces. Bob's Run fails with ErrQueryOp wrapping ErrPrunedSpan,
// on an HDP settle chunk and on an enhanced core chunk alike, before he
// has put a single frame of the pass on the wire: no dummy is padded in,
// nothing is encrypted or compared.
func TestResponderRefusesPrunedWholeSpan(t *testing.T) {
	oneCell := func(msg *transport.Builder) *transport.Builder {
		return spatial.EncodeCells(msg.PutBool(true), [][]int64{{0, 0}})
	}
	for _, tc := range []struct {
		name  string
		frame *transport.Builder
		open  func(t *testing.T) (alice transport.Conn, tap *sentTap, done chan error)
	}{
		{"settle chunk", oneCell(transport.NewBuilder().PutUint(OpSettle).PutUint(1).PutUint(0).PutUint(1)),
			func(t *testing.T) (transport.Conn, *sentTap, chan error) {
				cfg := parallelCfg(compare.EngineMasked, 1, PruneOff)
				f := openSettleFixture(t, cfg, [2][][][]float64{{{{0, 0}}, {{1, 1}}}, {{{1, 1}}, {{2, 2}, {6, 6}, {7, 7}}}})
				// The expiry is answered, so Bob is between ops when his
				// channel is tapped.
				if err := f.sess[0].Expire(1); err != nil {
					t.Fatal(err)
				}
				tap := &sentTap{Conn: f.sess[1].s.Conns[0]}
				f.sess[1].s.Conns[0] = tap
				if err := f.sess[0].sendOp(transport.NewBuilder().PutUint(sessOpRun)); err != nil {
					t.Fatal(err)
				}
				return f.sess[0].s.Conns[0], tap, f.done
			}},
		{"core chunk", oneCell(transport.NewBuilder().PutUint(opCore).PutUint(1).PutUint(0).PutUint(1)),
			func(t *testing.T) (transport.Conn, *sentTap, chan error) {
				f := openCoreFixture(t, 1)
				return f.alice.s.Conns[0], f.tap, f.done
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, tap, done := tc.open(t)
			before := len(tap.sent)
			if err := transport.SendMsg(conn, tc.frame); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrQueryOp) || !errors.Is(err, ErrPrunedSpan) {
					t.Errorf("Bob's Run = %v, want ErrQueryOp wrapping ErrPrunedSpan", err)
				}
			case <-timeoutAfterProtocol(t):
				t.Fatal("Bob's Run hung on a pruned whole-span announcement")
			}
			if n := len(tap.sent) - before; n != 0 {
				t.Errorf("Bob sent %d frames in answer to a refused op", n)
			}
			conn.Close()
		})
	}
}
