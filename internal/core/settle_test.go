package core

import (
	"errors"
	"fmt"
	"maps"
	mrand "math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/compare"
	"repro/internal/fixedpoint"
	"repro/internal/metrics"
	"repro/internal/spatial"
	"repro/internal/transport"
)

// The settle differential: the same session lifecycle — cold Run, Append,
// an append that is empty on one side, WindowAppend (append + expire),
// Retract, a re-Run, Expire — runs once on the settle schedule and once on
// the per-query driver it replaced (perquery_test.go), and everything a
// party can count must come out equal at every Run: labels, the cached
// (point, generation) segments, every Ledger class, SecureComparisons and
// CachedComparisons, on both sides.

var settleGens = [2][][][]float64{
	{ // Alice
		{{0, 0}, {1, 1}, {0, 1}},
		{{2, 0}, {0, 2}, {6, 6}},
		{},
		{{5, 5}, {7, 7}, {1, 0}, {3, 4}},
	},
	{ // Bob
		{{1, 0}, {6, 7}},
		{{2, 3}, {5, 6}},
		{{5, 7}, {2, 2}, {4, 0}},
		{}, // the newest generation empty: the sweep-closing sub-query has no candidates
	},
}

// settleStage is what one party holds after one Run of the lifecycle.
type settleStage struct {
	res  *Result
	segs map[int][]CountSeg
	enh  map[int]enhEntry
}

type sessionOpener func(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, *hStream, error)

func settleSessionOpener(conn transport.Conn, cfg Config, role Role, points [][]float64) (*Session, *hStream, error) {
	return newHorizontalSession(conn, cfg, role, points, "horizontal", hBasic)
}

// runSettleLifecycle drives the lifecycle on sessions from open and returns
// each side's stages.
func runSettleLifecycle(t *testing.T, cfg Config, open sessionOpener) (stages [2][]settleStage) {
	t.Helper()
	var mu sync.Mutex
	record := func(side int, hs *hStream, res *Result) {
		segs := make(map[int][]CountSeg, len(hs.peer.hdp.m))
		for i, ss := range hs.peer.hdp.m {
			segs[i] = append([]CountSeg(nil), ss...)
		}
		enh := maps.Clone(hs.peer.enh)
		mu.Lock()
		stages[side] = append(stages[side], settleStage{res, segs, enh})
		mu.Unlock()
	}
	ca, cb := transport.Pipe()
	err := transport.RunPair(ca, cb,
		func(transport.Conn) error {
			sess, hs, err := open(ca, cfg, RoleAlice, settleGens[0][0])
			if err != nil {
				return err
			}
			steps := []func() error{
				func() error { return nil }, // cold
				func() error { return sess.Append(settleGens[0][1]) },
				func() error { return sess.Append(settleGens[0][2]) },
				func() error { return sess.WindowAppend(settleGens[0][3]) },
				func() error { return sess.Retract([]int{1, 5}) },
				func() error { return nil }, // re-Run: everything cached
				func() error { return sess.Expire(1) },
			}
			for i, step := range steps {
				if err := step(); err != nil {
					return fmt.Errorf("step %d: %w", i, err)
				}
				res, err := sess.Run()
				if err != nil {
					return fmt.Errorf("run %d: %w", i, err)
				}
				record(0, hs, res)
			}
			return sess.Close()
		},
		func(transport.Conn) error {
			sess, hs, err := open(cb, cfg, RoleBob, settleGens[1][0])
			if err != nil {
				return err
			}
			gen := 0
			sess.SetAppendSource(func(AppendRequest) ([][]float64, error) {
				gen++
				return settleGens[1][gen], nil
			})
			sess.SetRetractSource(func(RetractRequest) ([]int, error) { return []int{0, 3}, nil })
			for {
				res, err := sess.Run()
				if errors.Is(err, ErrSessionClosed) {
					return nil
				}
				if err != nil {
					return err
				}
				record(1, hs, res)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return stages
}

func TestSettleMatchesPerQueryDriver(t *testing.T) {
	for _, engine := range []compare.EngineKind{compare.EngineMasked, compare.EngineYMPP} {
		for _, packing := range []PackMode{PackOff, PackSlots, PackFull} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/packing=%s/W=%d", engine, packing, w), func(t *testing.T) {
					cfg := parallelCfg(engine, w, PruneGrid)
					cfg.Packing = packing
					got := runSettleLifecycle(t, cfg, settleSessionOpener)
					want := runSettleLifecycle(t, cfg, newPerQuerySession)
					cached := int64(0)
					for side, role := range []Role{RoleAlice, RoleBob} {
						if len(got[side]) != len(want[side]) || len(got[side]) != 7 {
							t.Fatalf("%v: %d stages on the settle schedule, %d per query, want 7", role, len(got[side]), len(want[side]))
						}
						for stage := range got[side] {
							g, w := got[side][stage], want[side][stage]
							at := fmt.Sprintf("%v stage %d", role, stage)
							if !metrics.ExactMatch(g.res.Labels, w.res.Labels) || g.res.NumClusters != w.res.NumClusters {
								t.Errorf("%s: labels %v (%d clusters), per query %v (%d)", at, g.res.Labels, g.res.NumClusters, w.res.Labels, w.res.NumClusters)
							}
							if g.res.Leakage != w.res.Leakage {
								t.Errorf("%s: ledger %v, per query %v", at, g.res.Leakage, w.res.Leakage)
							}
							if g.res.SecureComparisons != w.res.SecureComparisons || g.res.CachedComparisons != w.res.CachedComparisons {
								t.Errorf("%s: %d secure + %d cached comparisons, per query %d + %d", at,
									g.res.SecureComparisons, g.res.CachedComparisons, w.res.SecureComparisons, w.res.CachedComparisons)
							}
							if !reflect.DeepEqual(g.segs, w.segs) {
								t.Errorf("%s: cached segments %v, per query %v", at, g.segs, w.segs)
							}
							cached += g.res.CachedComparisons
						}
					}
					if cached == 0 {
						t.Error("no stage answered anything from the cache: the lifecycle compared cold runs only")
					}
				})
			}
		}
	}
}

// settleFixture is an established horizontal session pair the schedule
// tests poke at from Alice's side.
type settleFixture struct {
	sess [2]*Session
	hs   [2]*hStream
	done chan error // Bob's serving loop
}

// openSettleFixture establishes a session pair over a pipe — Alice holding
// gens[0][0], Bob gens[1][0] — appends the further generations on both
// sides, and leaves Bob in his serving loop.
func openSettleFixture(t *testing.T, cfg Config, gens [2][][][]float64) *settleFixture {
	t.Helper()
	f := &settleFixture{done: make(chan error, 1)}
	ca, cb := transport.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	if err := both(
		func() (err error) {
			f.sess[0], f.hs[0], err = settleSessionOpener(ca, cfg, RoleAlice, gens[0][0])
			return err
		},
		func() (err error) {
			f.sess[1], f.hs[1], err = settleSessionOpener(cb, cfg, RoleBob, gens[1][0])
			return err
		},
	); err != nil {
		t.Fatal(err)
	}
	gen := 0
	f.sess[1].SetAppendSource(func(AppendRequest) ([][]float64, error) {
		gen++
		return gens[1][gen], nil
	})
	go func() {
		for {
			if _, err := f.sess[1].Run(); err != nil {
				f.done <- err
				return
			}
		}
	}()
	for _, batch := range gens[0][1:] {
		if err := f.sess[0].Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// close ends both sessions: Alice's close op releases Bob's serving loop.
// The pairs and the connection under them stay usable.
func (f *settleFixture) close(t *testing.T) {
	t.Helper()
	if err := f.sess[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-f.done; !errors.Is(err, ErrSessionClosed) {
		t.Fatal(err)
	}
}

// randomGens draws n generations a side of 0–5 points each on the 8-grid,
// the first one never empty.
func randomGens(rng *mrand.Rand, n int) (gens [2][][][]float64) {
	for side := range gens {
		for g := 0; g < n; g++ {
			k := rng.Intn(6)
			if g == 0 {
				k++
			}
			batch := make([][]float64, k)
			for i := range batch {
				batch[i] = []float64{float64(rng.Intn(8)), float64(rng.Intn(8))}
			}
			gens[side] = append(gens[side], batch)
		}
	}
	return gens
}

// TestSettleRunFramePin pins what the schedule puts on the wire at every
// batched packing: one exchange a chunk whatever S is. A cold two-party Run
// is the run op plus, per pass, six frames a chunk — op, encrypted
// coordinates, folded reply, three of comparison — and the W done frames;
// the walk sends nothing. With 40 points a side and pruning off a pass is
// more than four chunks, so at W = 4 every channel runs a second one. The
// Run after Append(2) — two new rows a side against the whole peer, every
// old row against the peer's two new points — is one chunk a pass.
func TestSettleRunFramePin(t *testing.T) {
	const n = 40
	ptsA, ptsB := make([][]float64, n), make([][]float64, n)
	for i := range ptsA {
		ptsA[i], ptsB[i] = []float64{float64(i % 8), float64(i / 8)}, []float64{float64(7 - i%8), float64(i / 8)}
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = n // pruning off: a row is the whole peer
	}
	wantCold := packRows(rows, lockstepChunk)
	if wantCold <= 4 {
		t.Fatalf("the fixture is %d chunks a pass: it does not fill four channels", wantCold)
	}
	for _, tc := range []struct {
		packing PackMode
		w       int
	}{{PackOff, 1}, {PackOff, 4}, {PackSlots, 1}, {PackSlots, 4}, {PackFull, 1}, {PackFull, 4}} {
		w := tc.w
		cfg := parallelCfg(compare.EngineMasked, w, PruneOff)
		cfg.Packing = tc.packing
		ca, cb := transport.Pipe()
		ma := transport.NewMeter(ca)
		var cold, warm, coldCmps, warmCmps int64
		err := transport.RunPair(ma, cb,
			func(transport.Conn) error {
				sess, err := NewHorizontalSession(ma, cfg, RoleAlice, ptsA)
				if err != nil {
					return err
				}
				before := ma.Stats().Messages()
				res, err := sess.Run()
				if err != nil {
					return err
				}
				cold, coldCmps = ma.Stats().Messages()-before, res.SecureComparisons
				if err := sess.Append([][]float64{{3, 3}, {4, 4}}); err != nil {
					return err
				}
				before = ma.Stats().Messages()
				if res, err = sess.Run(); err != nil {
					return err
				}
				warm, warmCmps = ma.Stats().Messages()-before, res.SecureComparisons
				return sess.Close()
			},
			func(c transport.Conn) error {
				sess, err := NewHorizontalSession(c, cfg, RoleBob, ptsB)
				if err != nil {
					return err
				}
				sess.SetAppendSource(func(AppendRequest) ([][]float64, error) { return [][]float64{{3, 4}, {4, 3}}, nil })
				for run := 0; run < 2; run++ {
					if _, err := sess.Run(); err != nil {
						return err
					}
				}
				if _, err := sess.Run(); !errors.Is(err, ErrSessionClosed) {
					return fmt.Errorf("serving side after the close op: %v", err)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("packing=%s W=%d: %v", tc.packing, w, err)
		}
		if want := int64(1 + 2*(6*wantCold+w)); coldCmps != 2*n*n || cold != want {
			t.Errorf("packing=%s W=%d: cold Run: %d comparisons in %d frames, want %d in 1 + 2×(6×%d + %d)", tc.packing, w, coldCmps, cold, 2*n*n, wantCold, w)
		}
		if want := int64(1 + 2*(6+w)); warmCmps != 2*(2*(n+2)+2*n) || warm != want {
			t.Errorf("packing=%s W=%d: Run after Append(2): %d comparisons in %d frames, want %d in 1 + 2×(6 + %d) (one chunk a pass)", tc.packing, w, warmCmps, warm, 2*(2*(n+2)+2*n), w)
		}
	}
}

// recordingPerm notes the size of every permutation a responder draws.
type recordingPerm struct {
	PermSource
	sizes []int
}

func (p *recordingPerm) Perm(n int) []int {
	p.sizes = append(p.sizes, n)
	return p.PermSource.Perm(n)
}

// serveSettleChunks plays the responder of one driving pass on conn with
// the given permutation source, until the done frame.
func serveSettleChunks(f *settleFixture, conn transport.Conn, rng PermSource) error {
	s := f.sess[1].s
	_, engB, err := s.DistEngines()
	if err != nil {
		return err
	}
	for {
		r, err := transport.RecvMsg(conn)
		if err != nil {
			return err
		}
		switch op := r.Uint(); op {
		case opDone:
			return nil
		case OpSettle:
			if err := s.SettleServe(conn, rng, engB, f.hs[1].own, f.hs[1].peer, r); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected op %d", op)
		}
	}
}

// TestSettlePermutesPerSubQuery: the responder draws one fresh permutation
// per sub-query, over exactly that sub-query's padded candidates — never
// one over a row or a chunk — which is what lets the driver attribute an
// in-range count to a (point, generation) and to nothing finer; and the
// counts it attributes are the plaintext ones. Run at every packing mode:
// the row-dot exchange permutes alike at every S.
func TestSettlePermutesPerSubQuery(t *testing.T) {
	for _, packing := range []PackMode{PackFull, PackSlots, PackOff} {
		cfg := testCfg(compare.EngineMasked)
		cfg.Packing = packing
		f := openSettleFixture(t, cfg, settleGens)
		// End the sessions (not the pairs, nor the connection): this test
		// plays Bob's responder itself, with its own permutation source.
		f.close(t)
		sA, own, peer := f.sess[0].s, f.hs[0].own, f.hs[0].peer
		var asked []SubQuery
		rng := &recordingPerm{PermSource: f.sess[1].s.channelRng(0)}
		err := both(
			func() error {
				engA, _, err := sA.DistEngines()
				if err != nil {
					return err
				}
				err = sA.settle(own, peer, 1, chunkBound(engA.FrameBytes()), true, func(ch int, chunk []SubQuery) ([]int, error) {
					asked = append(asked, chunk...)
					return sA.settleChunk(sA.Conns[ch], engA, own, chunk)
				})
				if err != nil {
					return err
				}
				return sA.SendDone("hdp.op")
			},
			func() error { return serveSettleChunks(f, f.sess[1].s.Conns[0], rng) })
		if err != nil {
			t.Fatalf("packing=%s: %v", packing, err)
		}
		var want []int
		for _, q := range asked {
			want = append(want, q.NCand)
		}
		if len(want) < 2*len(own.Enc) || !reflect.DeepEqual(rng.sizes, want) {
			t.Errorf("packing=%s: permutations drawn over %v, the sub-queries hold %v", packing, rng.sizes, want)
		}
		gens := len(peer.Count)
		for i, p := range own.Enc {
			for g := 0; g < gens; g++ {
				truth := 0
				for _, q := range f.hs[1].own.Span(g, g+1) {
					if fixedpoint.DistSq(p, q) <= sA.epsSq {
						truth++
					}
				}
				var got int
				for _, seg := range peer.hdp.m[i] {
					if seg.From == g && seg.To == g+1 {
						got = seg.Count
					}
				}
				if got != truth {
					t.Errorf("packing=%s: point %d generation %d cached %d in range, plaintext %d", packing, i, g, got, truth)
				}
			}
		}
	}
}

// TestSettleUplinkClassesStayInsideOnePoint: two own points with equal
// Σy² — (1, 2) and (2, 1) — share a chunk, and the comparison uplink the
// responder is sent still carries one ciphertext for each: the grouped
// uplink's equality classes are keyed by (row, value) with row = own
// point, so the responder learns which instances belong to one point,
// which it knew, and not that two points lie equally far from the origin.
func TestSettleUplinkClassesStayInsideOnePoint(t *testing.T) {
	cfg := testCfg(compare.EngineMasked)
	cfg.Packing = PackFull
	ca, cb := transport.Pipe()
	tap := &sentTap{Conn: ca}
	err := transport.RunPair(tap, cb,
		func(transport.Conn) error {
			_, err := HorizontalAlice(tap, cfg, [][]float64{{1, 2}, {2, 1}})
			return err
		},
		func(c transport.Conn) error {
			_, err := HorizontalBob(c, cfg, [][]float64{{1, 1}, {2, 2}, {6, 6}})
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	// Alice's frames: handshake, index, run op, then her pass's one chunk —
	// op, folded reply, comparison uplink, result bits.
	var uplink *transport.Reader
	for i, b := range tap.sent {
		if r := transport.NewReader(b); r.Uint() == OpSettle && i+2 < len(tap.sent) {
			uplink = transport.NewReader(tap.sent[i+2])
			break
		}
	}
	if uplink == nil {
		t.Fatal("no settle chunk among the driver's frames")
	}
	_, mode, classes, cts := uplink.Uint(), uplink.Uint(), uplink.Ints(), uplink.Bigs()
	if err := uplink.Err(); err != nil || mode != 2 {
		t.Fatalf("comparison uplink: mode %d (want 2, grouped), parse error %v", mode, err)
	}
	if len(cts) != 2 {
		t.Errorf("comparison uplink carries %d ciphertexts for two own points of equal Σy², want 2", len(cts))
	}
	if want := []int64{0, 0, 0, 1, 1, 1}; !reflect.DeepEqual(classes, want) {
		t.Errorf("class indices %v, want %v: one class per own point", classes, want)
	}
}

// hostileChunk builds a settle op frame from (point, generation) entries;
// with pruning off an entry carries nothing else.
func hostileChunk(declared uint64, entries ...[2]uint64) *transport.Builder {
	msg := transport.NewBuilder().PutUint(OpSettle).PutUint(declared)
	for _, e := range entries {
		msg.PutUint(e[0]).PutUint(e[1])
	}
	return msg
}

// TestResponderRefusesHostileSettleOps: a scripted hostile driver per rule
// of readSettleOp, and one for the done frame's walk count. Bob is a real
// session of 40 points in two live generations behind one expired; Alice
// (3 live points) announces a Run and sends the frame. Bob's Run fails
// with ErrQueryOp before he has put a single frame of the pass on the
// wire, and the honest frame next to each rule's boundary is served.
func TestResponderRefusesHostileSettleOps(t *testing.T) {
	const perGen = 20
	bobGen := func(g int) [][]float64 {
		pts := make([][]float64, perGen)
		for i := range pts {
			pts[i] = []float64{float64((i + g) % 8), float64(i / 3)}
		}
		return pts
	}
	many := make([][2]uint64, 0, 8)
	for p := uint64(0); p < 3; p++ {
		for g := uint64(1); g < 3; g++ {
			many = append(many, [2]uint64{p, g})
		}
	}
	done := func(walked uint64) *transport.Builder {
		return transport.NewBuilder().PutUint(opDone).PutUint(walked)
	}
	for _, tc := range []struct {
		name   string
		frame  *transport.Builder
		honest bool
	}{
		{"one row", hostileChunk(2, [2]uint64{0, 1}, [2]uint64{0, 2}), true},
		{"every row, 120 candidates", hostileChunk(6, many...), true},
		{"no sub-query", hostileChunk(0), false},
		{"more sub-queries than points × live generations", hostileChunk(7, append(many, [2]uint64{2, 2})...), false},
		{"count the frame cannot hold", hostileChunk(6, many[:2]...), false},
		{"repeated sub-query", hostileChunk(2, [2]uint64{0, 1}, [2]uint64{0, 1}), false},
		{"generations descending", hostileChunk(2, [2]uint64{0, 2}, [2]uint64{0, 1}), false},
		{"points descending", hostileChunk(2, [2]uint64{1, 1}, [2]uint64{0, 1}), false},
		{"point past the driver's live count", hostileChunk(1, [2]uint64{3, 1}), false},
		{"expired generation", hostileChunk(1, [2]uint64{0, 0}), false},
		{"generation past the table", hostileChunk(1, [2]uint64{0, 3}), false},
		{"walk of n·(n+1) queries", done(3 * 4), true},
		{"walk no Algorithm 4 run takes", done(3*4 + 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := parallelCfg(compare.EngineMasked, 1, PruneOff)
			cfg.Packing = PackFull
			gens := [2][][][]float64{
				{{{0, 0}}, {{1, 1}, {2, 2}}, {{3, 3}}},
				{bobGen(0), bobGen(1), bobGen(2)},
			}
			f := openSettleFixture(t, cfg, gens)
			if err := f.sess[0].Expire(1); err != nil {
				t.Fatal(err)
			}
			conn := f.sess[0].s.Conns[0]
			tap := &sentTap{Conn: f.sess[1].s.Conns[0]}
			f.sess[1].s.Conns[0] = tap
			if err := f.sess[0].sendOp(transport.NewBuilder().PutUint(sessOpRun)); err != nil {
				t.Fatal(err)
			}
			before := len(tap.sent)
			if err := transport.SendMsg(conn, tc.frame); err != nil {
				t.Fatal(err)
			}
			if tc.honest {
				// Served: Bob's next frame is the chunk's encrypted
				// coordinates (or, after an accepted done frame, his own
				// pass's first op). Either way he sends.
				if _, err := conn.Recv(); err != nil {
					t.Fatalf("an honest frame was refused: %v", err)
				}
				conn.Close()
				<-f.done
				return
			}
			select {
			case err := <-f.done:
				if !errors.Is(err, ErrQueryOp) {
					t.Errorf("Bob's Run = %v, want ErrQueryOp", err)
				}
			case <-timeoutAfterProtocol(t):
				t.Fatal("Bob's Run hung on a hostile frame")
			}
			if n := len(tap.sent) - before; n != 0 {
				t.Errorf("Bob sent %d frames in answer to a refused op", n)
			}
		})
	}
}

// TestReadSettleOpChunkBound: the bound on a chunk's summed candidates, at
// the decoder: several rows over the bound are refused, one row over it is
// served (a row is never split), several rows at it are served.
func TestReadSettleOpChunkBound(t *testing.T) {
	cfg, err := testCfg(compare.EngineMasked).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	own, err := NewOwnGens(cfg, [][]float64{{0, 0}, {1, 1}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := own.Append([][]int64{{3, 3}, {4, 4}}); err != nil {
		t.Fatal(err)
	}
	s := &Pair{cfg: cfg, dim: 2}
	read := func(bound int, entries ...[2]uint64) error {
		r := transport.NewReader(hostileChunk(uint64(len(entries)), entries...).Bytes())
		r.Uint() // the op code Serve consumes
		_, err := s.readSettleOp(r, own, 4, bound)
		return err
	}
	if err := read(6, [2]uint64{0, 0}, [2]uint64{1, 0}); err != nil {
		t.Errorf("two rows of 3 at bound 6: %v", err)
	}
	if err := read(4, [2]uint64{0, 0}, [2]uint64{0, 1}); err != nil {
		t.Errorf("one row of 5 at bound 4: %v", err)
	}
	if err := read(5, [2]uint64{0, 0}, [2]uint64{1, 0}); !errors.Is(err, ErrQueryOp) {
		t.Errorf("two rows of 3 at bound 5: %v, want ErrQueryOp", err)
	}
}

// opFuzzFixture is the session state the op-decoder fuzzers read against:
// a responder of three live points in two live generations behind an
// expired one (the middle generation empty), under grid pruning, and a
// driver's view of it that holds the same directories.
func opFuzzFixture(f *testing.F) (*Pair, *OwnGens, *PeerGens) {
	cfg, err := testCfg(compare.EngineMasked).Normalize()
	if err != nil {
		f.Fatal(err)
	}
	own, err := NewOwnGens(cfg, [][]float64{{0, 0}, {1, 1}, {6, 6}})
	if err != nil {
		f.Fatal(err)
	}
	s := &Pair{cfg: cfg, dim: 2, epsSq: 4, bound: 98}
	if err := s.setDimension(2); err != nil || !s.pruneOn {
		f.Fatalf("fixture: pruning %v, %v", s.pruneOn, err)
	}
	if _, err := own.index(s.cellW); err != nil {
		f.Fatal(err)
	}
	for _, batch := range [][][]int64{{{2, 2}, {5, 5}}, {}, {{7, 7}}} {
		if _, err := own.Append(batch); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := own.Expire(1); err != nil {
		f.Fatal(err)
	}
	peer := newPeerGens(3)
	for g := 1; g < own.Gens(); g++ {
		dir, err := own.stack.Dir(g)
		if err != nil {
			f.Fatal(err)
		}
		peer.dirs = append(peer.dirs, dir)
		peer.Append(len(own.Span(g, g+1)))
	}
	peer.dirs = append([]spatial.Directory{{Dim: 2}}, peer.dirs...) // generation 0's husk
	return s, own, peer
}

// FuzzSettleOp: the settle op decoder is fed whatever a driver sends.
// It must not panic, and what it returns is bounded by the frame and by
// the session: no more sub-queries than the frame has bytes for, no more
// candidates than sub-queries × own points.
func FuzzSettleOp(f *testing.F) {
	s, own, peer := opFuzzFixture(f)
	// Seeds: honest chunks over the fixture's own directories, pruned and
	// exhaustive, and a few broken ones.
	for _, p := range [][]int64{{2, 2}, {6, 6}, {0, 7}} {
		msg := transport.NewBuilder().PutUint(3)
		for g := 1; g < own.Gens(); g++ {
			msg.PutUint(0).PutUint(uint64(g))
			s.Announce(msg, s.SubQuery(peer, p, 0, g))
		}
		if _, err := s.readSettleOp(transport.NewReader(msg.Bytes()), own, 3, 256); err != nil {
			f.Fatalf("honest seed for %v refused: %v", p, err)
		}
		f.Add(msg.Bytes())
	}
	f.Add(hostileChunk(2, [2]uint64{0, 1}, [2]uint64{0, 1}).Bytes()[1:])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		subs, err := s.readSettleOp(transport.NewReader(data), own, 3, 256)
		if err != nil {
			if subs != nil {
				t.Fatalf("an error and %d sub-queries", len(subs))
			}
			return
		}
		if len(subs) == 0 || 2*len(subs) > len(data) {
			t.Fatalf("%d sub-queries out of %d bytes", len(subs), len(data))
		}
		for _, q := range subs {
			if q.point < 0 || q.point >= 3 || len(q.pts) > len(own.Enc) || q.nDummy < 0 || q.nDummy > 64 {
				t.Fatalf("sub-query %+v outside the session", q)
			}
		}
	})
}
