package dispatch_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/transport"
)

func TestRingPickDeterministicAcrossAddOrder(t *testing.T) {
	a := dispatch.NewRing(0)
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		a.Add(s)
	}
	b := dispatch.NewRing(0)
	for _, s := range []string{"s3", "s1", "s4", "s2"} {
		b.Add(s)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		pa, _ := a.Pick(key)
		pb, _ := b.Pick(key)
		if pa != pb {
			t.Fatalf("key %q: pick depends on add order (%s vs %s)", key, pa, pb)
		}
		again, _ := a.Pick(key)
		if again != pa {
			t.Fatalf("key %q: pick not stable (%s then %s)", key, pa, again)
		}
	}
}

func TestRingWalkCoversAllShardsOnce(t *testing.T) {
	r := dispatch.NewRing(8)
	shards := []string{"s1", "s2", "s3", "s4"}
	for _, s := range shards {
		r.Add(s)
	}
	w := r.Walk("some-key")
	if len(w) != len(shards) {
		t.Fatalf("walk returned %d shards, want %d: %v", len(w), len(shards), w)
	}
	seen := map[string]bool{}
	for _, s := range w {
		if seen[s] {
			t.Fatalf("walk repeats shard %s: %v", s, w)
		}
		seen[s] = true
	}
	if p, ok := r.Pick("some-key"); !ok || p != w[0] {
		t.Fatalf("Pick (%s) disagrees with Walk head (%s)", p, w[0])
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := dispatch.NewRing(0)
	shards := []string{"s1", "s2", "s3", "s4"}
	for _, s := range shards {
		r.Add(s)
	}
	counts := map[string]int{}
	const keys = 2000
	for i := 0; i < keys; i++ {
		s, _ := r.Pick(fmt.Sprintf("key-%d", i))
		counts[s]++
	}
	for _, s := range shards {
		if counts[s] < keys/10 {
			t.Fatalf("shard %s got %d of %d keys — distribution badly skewed: %v", s, counts[s], keys, counts)
		}
	}
}

// TestRingBoundedRedistribution is the consistent-hashing contract:
// adding a shard only moves keys onto the new shard, removing one only
// moves that shard's keys — every other key keeps its owner.
func TestRingBoundedRedistribution(t *testing.T) {
	base := dispatch.NewRing(0)
	for _, s := range []string{"s1", "s2", "s3", "s4"} {
		base.Add(s)
	}
	const keys = 2000
	before := make([]string, keys)
	for i := range before {
		before[i], _ = base.Pick(fmt.Sprintf("key-%d", i))
	}

	base.Add("s5")
	moved := 0
	for i := range before {
		after, _ := base.Pick(fmt.Sprintf("key-%d", i))
		if after != before[i] {
			moved++
			if after != "s5" {
				t.Fatalf("key-%d moved %s→%s on add of s5: only moves onto the new shard are allowed", i, before[i], after)
			}
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("add of 1 shard to 4 moved %d of %d keys — expected a bounded, nonzero fraction (~1/5)", moved, keys)
	}

	base.Remove("s5")
	for i := range before {
		after, _ := base.Pick(fmt.Sprintf("key-%d", i))
		if after != before[i] {
			t.Fatalf("key-%d did not return to %s after removing s5 (got %s)", i, before[i], after)
		}
	}

	base.Remove("s2")
	for i := range before {
		after, _ := base.Pick(fmt.Sprintf("key-%d", i))
		if before[i] != "s2" && after != before[i] {
			t.Fatalf("key-%d owned by %s moved to %s on removal of s2", i, before[i], after)
		}
		if before[i] == "s2" && after == "s2" {
			t.Fatalf("key-%d still maps to removed shard s2", i)
		}
	}
}

// --- in-process shard fleet for dispatcher tests ---

// echoShard is a minimal backend: real SessionManager admission via
// dispatch.Backend, then an echo loop that prefixes every frame with
// the shard's name, so tests can verify which backend served a spliced
// session and that frames survive the relay intact.
type echoShard struct {
	name  string
	mgr   *core.SessionManager
	conns chan transport.Conn
	// alive gates dialing; closeOnAccept simulates a shard dying between
	// the dispatcher's pick and the splice (dial succeeds, preamble dies).
	alive         atomic.Bool
	closeOnAccept atomic.Bool
}

func newEchoShard(name string, maxSessions int) *echoShard {
	s := &echoShard{name: name, mgr: core.NewSessionManager(1), conns: make(chan transport.Conn, 16)}
	s.mgr.SetMaxSessions(maxSessions)
	s.alive.Store(true)
	go s.serve()
	return s
}

func (s *echoShard) serve() {
	for conn := range s.conns {
		go s.one(conn)
	}
}

func (s *echoShard) one(conn transport.Conn) {
	if s.closeOnAccept.Load() {
		conn.Close()
		return
	}
	b := &dispatch.Backend{Name: s.name, Mgr: s.mgr}
	h, ok, err := b.Accept(conn)
	if err != nil || !ok {
		return
	}
	h.Activate()
	for {
		msg, err := conn.Recv()
		if err != nil {
			h.End(nil)
			conn.Close()
			return
		}
		if err := conn.Send(append([]byte(s.name+":"), msg...)); err != nil {
			h.End(err)
			conn.Close()
			return
		}
	}
}

type fleet map[string]*echoShard

func (f fleet) dial(addr string) (transport.Conn, error) {
	s, ok := f[addr]
	if !ok || !s.alive.Load() {
		return nil, errors.New("connection refused")
	}
	a, b := transport.Pipe()
	s.conns <- b
	return a, nil
}

func (f fleet) names() []string {
	out := make([]string, 0, len(f))
	for n := range f {
		out = append(out, n)
	}
	return out
}

func newFleet(n, maxSessions int) fleet {
	f := fleet{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%d", i)
		f[name] = newEchoShard(name, maxSessions)
	}
	return f
}

func newDispatcher(t *testing.T, f fleet, shed int) *dispatch.Dispatcher {
	t.Helper()
	d, err := dispatch.New(dispatch.Options{
		Shards:         f.names(),
		Shed:           shed,
		HealthInterval: -1, // tests drive ProbeAll by hand
		Dial:           f.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// connect runs one client hello through the dispatcher, returning the
// client conn, the serving shard's name, and the Hello error. HandleConn
// runs on its own goroutine, as it would under an accept loop.
func connect(d *dispatch.Dispatcher, key string) (transport.Conn, string, error, chan error) {
	client, server := transport.Pipe()
	handled := make(chan error, 1)
	go func() { handled <- d.HandleConn(server) }()
	shard, err := dispatch.Hello(client, key)
	return client, shard, err, handled
}

func TestDispatcherRoutesBySessionKey(t *testing.T) {
	f := newFleet(3, 0)
	d := newDispatcher(t, f, 0)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("client-%d", i)
		var first string
		for rep := 0; rep < 2; rep++ {
			conn, shard, err, _ := connect(d, key)
			if err != nil {
				t.Fatalf("key %s rep %d: %v", key, rep, err)
			}
			if rep == 0 {
				first = shard
			} else if shard != first {
				t.Fatalf("key %s routed to %s then %s — routing must be deterministic", key, first, shard)
			}
			conn.Close()
		}
	}
}

func TestDispatcherSplicesTransparently(t *testing.T) {
	f := newFleet(2, 0)
	d := newDispatcher(t, f, 0)
	conn, shard, err, handled := connect(d, "client-A")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		out := []byte(fmt.Sprintf("frame-%d", i))
		if err := conn.Send(out); err != nil {
			t.Fatal(err)
		}
		in, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(shard+":"), out...)
		if !bytes.Equal(in, want) {
			t.Fatalf("frame %d: got %q want %q", i, in, want)
		}
	}
	conn.Close()
	if err := <-handled; err != nil {
		t.Fatalf("HandleConn: %v", err)
	}
	loads := d.Loads()
	if loads[shard].Admitted != 1 || loads[shard].BytesUp == 0 || loads[shard].BytesDn == 0 {
		t.Fatalf("shard %s load not tallied: %+v", shard, loads[shard])
	}
}

// TestDispatcherFailoverMidAccept kills the key's owning shard in two
// ways — dial refused, and connection dropped between pick and splice —
// and expects the dispatcher to spill to the next shard on the ring and
// mark the dead one off the ring.
func TestDispatcherFailoverMidAccept(t *testing.T) {
	for _, way := range []string{"dial-refused", "dies-after-dial"} {
		t.Run(way, func(t *testing.T) {
			f := newFleet(3, 0)
			d := newDispatcher(t, f, 0)
			key := "victim-key"
			conn, owner, err, _ := connect(d, key)
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()

			if way == "dial-refused" {
				f[owner].alive.Store(false)
			} else {
				f[owner].closeOnAccept.Store(true)
			}
			conn2, shard2, err, _ := connect(d, key)
			if err != nil {
				t.Fatalf("failover connect: %v", err)
			}
			if shard2 == owner {
				t.Fatalf("key still routed to dead shard %s", owner)
			}
			// The session works end to end on the failover shard.
			if err := conn2.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if in, err := conn2.Recv(); err != nil || !bytes.Equal(in, []byte(shard2+":ping")) {
				t.Fatalf("failover session broken: %q %v", in, err)
			}
			conn2.Close()
			if !d.Loads()[owner].Dead {
				t.Fatalf("dead shard %s not marked dead", owner)
			}

			// Recovery: shard comes back, a probe re-adds it, routing returns.
			f[owner].alive.Store(true)
			f[owner].closeOnAccept.Store(false)
			d.ProbeAll()
			if d.Loads()[owner].Dead {
				t.Fatalf("recovered shard %s still marked dead", owner)
			}
			conn3, shard3, err, _ := connect(d, key)
			if err != nil {
				t.Fatal(err)
			}
			if shard3 != owner {
				t.Fatalf("after recovery key routed to %s, want original owner %s", shard3, owner)
			}
			conn3.Close()
		})
	}
}

// TestDispatcherShedTypedErrors drives the load-based admission path:
// with a shed bound of 1 on a single shard, the second concurrent hello
// is refused with an error wrapping core.ErrServerFull — before any
// keygen — and the listener keeps serving afterwards.
func TestDispatcherShedTypedErrors(t *testing.T) {
	f := newFleet(1, 0)
	d := newDispatcher(t, f, 1)

	conn1, _, err, _ := connect(d, "holder")
	if err != nil {
		t.Fatal(err)
	}

	conn2, _, err, handled2 := connect(d, "shed-me")
	if !errors.Is(err, core.ErrServerFull) {
		t.Fatalf("want ErrServerFull through Hello, got %v", err)
	}
	if herr := <-handled2; !errors.Is(herr, core.ErrServerFull) {
		t.Fatalf("want HandleConn to report the typed shed, got %v", herr)
	}
	conn2.Close()
	if d.Loads()["shard-0"].Sheds != 0 {
		// The dispatcher shed at its own bound; the shard never saw it.
		t.Fatalf("shed at dispatcher bound must not reach the shard: %+v", d.Loads()["shard-0"])
	}

	// Releasing the held session frees the slot; the listener is not
	// poisoned by the refusals.
	conn1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for d.Loads()["shard-0"].Inflight > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	conn3, shard3, err, _ := connect(d, "late-client")
	if err != nil {
		t.Fatalf("post-shed connect: %v", err)
	}
	if shard3 != "shard-0" {
		t.Fatalf("post-shed connect routed to %q", shard3)
	}
	conn3.Close()
}

// TestDispatcherShardSideShedSpills puts the bound on the shard itself
// (its -max-sessions): the dispatcher forwards the hello, the shard
// refuses, and the dispatcher spills to the next shard.
func TestDispatcherShardSideShedSpills(t *testing.T) {
	f := newFleet(2, 1)
	d := newDispatcher(t, f, 0)

	// Occupy both shards' single slots, then a third hello is shed with
	// the typed error after both shards refused.
	conn1, s1, err, _ := connect(d, "k-0")
	if err != nil {
		t.Fatal(err)
	}
	var conn2 transport.Conn
	var s2 string
	for i := 1; ; i++ {
		c, s, err, _ := connect(d, fmt.Sprintf("k-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if s != s1 {
			conn2, s2 = c, s
			break
		}
		// Same shard had capacity? With max-sessions 1 the first session
		// still holds the slot, so this cannot admit on s1 again.
		t.Fatalf("second session admitted on full shard %s", s)
	}
	_, _, err, _ = connect(d, "k-overflow")
	if !errors.Is(err, core.ErrServerFull) {
		t.Fatalf("want ErrServerFull after both shards refused, got %v", err)
	}
	loads := d.Loads()
	if loads[s1].Sheds+loads[s2].Sheds == 0 {
		t.Fatal("shard-side refusals not tallied")
	}
	conn1.Close()
	conn2.Close()
}

func TestDispatcherDrain(t *testing.T) {
	f := newFleet(2, 0)
	d := newDispatcher(t, f, 0)

	conn, shard, err, _ := connect(d, "client-A")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	done := make(chan struct{})
	var merged core.ManagerSnapshot
	var graceful bool
	go func() {
		merged, _, graceful = d.Drain(2 * time.Second)
		close(done)
	}()
	<-done
	if !graceful {
		t.Fatal("drain with no in-flight sessions must be graceful")
	}
	if merged.Opened != 1 {
		t.Fatalf("fleet rollup: opened %d, want 1 (session on %s)", merged.Opened, shard)
	}

	// Post-drain hellos are shed with ErrDraining.
	_, _, err, handled := connect(d, "late")
	if !errors.Is(err, core.ErrDraining) {
		t.Fatalf("want ErrDraining after drain, got %v", err)
	}
	if herr := <-handled; !errors.Is(herr, core.ErrDraining) {
		t.Fatalf("HandleConn after drain: %v", herr)
	}
}

func TestBackendPreamble(t *testing.T) {
	s := newEchoShard("b0", 1)

	// Ping.
	a, b := transport.Pipe()
	s.conns <- b
	pong, err := dispatch.Ping(a)
	if err != nil || pong.Shard != "b0" || pong.Draining {
		t.Fatalf("ping: %+v %v", pong, err)
	}

	// Stats decode end to end.
	a, b = transport.Pipe()
	s.conns <- b
	snap, err := dispatch.Stats(a)
	if err != nil || snap.Opened != 0 {
		t.Fatalf("stats: %+v %v", snap, err)
	}

	// Hello admitted, then a second one shed by -max-sessions 1.
	a, b = transport.Pipe()
	s.conns <- b
	shard, err := dispatch.Hello(a, "k")
	if err != nil || shard != "b0" {
		t.Fatalf("hello: %q %v", shard, err)
	}
	a2, b2 := transport.Pipe()
	s.conns <- b2
	if _, err := dispatch.Hello(a2, "k2"); !errors.Is(err, core.ErrServerFull) {
		t.Fatalf("want ErrServerFull from full backend, got %v", err)
	}
	a.Close()
	a2.Close()
}

// --- real protocol sessions through the tier ---

// family opens one side of a long-lived session of one protocol family.
type family struct {
	name string
	open func(conn transport.Conn, cfg core.Config, role core.Role) (*core.Session, error)
}

// fourFamilies builds the four two-party families over one small
// quantized dataset, with seeded permutations so a session's labels,
// Ledgers and counters do not depend on which connection carried it.
// MinPts exceeds a party's share of a blob, so the enhanced family
// cannot settle its core points locally and every family sends secure
// traffic through the splice.
func fourFamilies(t *testing.T) ([]family, core.Config) {
	t.Helper()
	q, scaleEps := dataset.Quantize(dataset.Blobs(24, 2, 0.08, 5), 64)
	cfg := core.Config{
		Eps: scaleEps(0.4), MinPts: 7, MaxCoord: 63,
		PaillierBits: 256, RSABits: 256,
		Engine: compare.EngineMasked, Seed: 5,
	}
	hs, err := partition.HorizontalRandom(q.Points, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := partition.Vertical(q.Points, 1)
	if err != nil {
		t.Fatal(err)
	}
	as, err := partition.ArbitraryRandom(q.Points, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	side := func(role core.Role, alice, bob [][]float64) [][]float64 {
		if role == core.RoleAlice {
			return alice
		}
		return bob
	}
	return []family{
		{"horizontal", func(conn transport.Conn, cfg core.Config, role core.Role) (*core.Session, error) {
			return core.NewHorizontalSession(conn, cfg, role, side(role, hs.Alice, hs.Bob))
		}},
		{"enhanced", func(conn transport.Conn, cfg core.Config, role core.Role) (*core.Session, error) {
			return core.NewEnhancedHorizontalSession(conn, cfg, role, side(role, hs.Alice, hs.Bob))
		}},
		{"vertical", func(conn transport.Conn, cfg core.Config, role core.Role) (*core.Session, error) {
			return core.NewVerticalSession(conn, cfg, role, side(role, vs.Alice, vs.Bob))
		}},
		{"arbitrary", func(conn transport.Conn, cfg core.Config, role core.Role) (*core.Session, error) {
			return core.NewArbitrarySession(conn, cfg, role, side(role, as.Alice, as.Bob), as.Owners)
		}},
	}, cfg
}

// sideOutcome is everything one party of a session decides or discloses.
type sideOutcome struct {
	setup core.Ledger
	res   []*core.Result
}

// initiate is the client half: establish, runs clustering runs, close.
func initiate(fam family, conn transport.Conn, cfg core.Config, runs int) (sideOutcome, error) {
	var out sideOutcome
	sess, err := fam.open(conn, cfg, core.RoleAlice)
	if err != nil {
		return out, err
	}
	out.setup = sess.SetupLeakage()
	for r := 0; r < runs; r++ {
		res, err := sess.Run()
		if err != nil {
			return out, err
		}
		out.res = append(out.res, res)
	}
	return out, sess.Close()
}

// respond is the serving half: establish, then run until the client
// closes, calling ran after every completed run.
func respond(fam family, conn transport.Conn, cfg core.Config, ran func()) (sideOutcome, error) {
	var out sideOutcome
	sess, err := fam.open(conn, cfg, core.RoleBob)
	if err != nil {
		return out, err
	}
	out.setup = sess.SetupLeakage()
	for {
		res, err := sess.Run()
		if errors.Is(err, core.ErrSessionClosed) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		ran()
		out.res = append(out.res, res)
	}
}

// TestDispatcherTransparentForEveryFamily is the routing-transparency
// contract for real protocol traffic: for each of the four families, a
// session routed client → Dispatcher.HandleConn → dialed conn →
// Backend.Accept + SessionManager equals a session over a bare
// transport.Pipe, run for run, in both parties' labels, run Ledgers,
// set-up Ledgers and comparison/ciphertext counts (the second run
// replays the session's comparison cache) — and the dispatcher's
// fleet rollup afterwards accounts for exactly the sessions it routed.
func TestDispatcherTransparentForEveryFamily(t *testing.T) {
	const runs = 2
	fams, cfg := fourFamilies(t)
	for _, fam := range fams {
		t.Run(fam.name, func(t *testing.T) {
			var directA, directB sideOutcome
			err := transport.Run2(
				func(conn transport.Conn) (err error) {
					directA, err = initiate(fam, conn, cfg, runs)
					return err
				},
				func(conn transport.Conn) (err error) {
					directB, err = respond(fam, conn, cfg, func() {})
					return err
				})
			if err != nil {
				t.Fatalf("direct session: %v", err)
			}

			mgr := core.NewSessionManager(0)
			backend := &dispatch.Backend{Name: "shard-0", Mgr: mgr}
			type served struct {
				out sideOutcome
				err error
			}
			servedc := make(chan served, 1)
			d, err := dispatch.New(dispatch.Options{
				Shards:         []string{backend.Name},
				HealthInterval: -1,
				Dial: func(string) (transport.Conn, error) {
					a, b := transport.Pipe()
					go func() {
						h, ok, err := backend.Accept(b)
						if !ok { // the rollup's stats pull, or a broken preamble
							if err != nil {
								servedc <- served{err: err}
							}
							return
						}
						defer b.Close()
						h.Activate()
						out, err := respond(fam, h.Meter(), mgr.Configure(cfg), h.RunDone)
						h.End(err)
						servedc <- served{out, err}
					}()
					return a, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			// The routed session runs under a watchdog: a tier that
			// swallows a frame must fail this test, not hang it.
			client, shard, err, handled := connect(d, "key-"+fam.name)
			if err != nil {
				t.Fatalf("admission: %v", err)
			}
			watchdog := time.AfterFunc(30*time.Second, func() { client.Close() })
			routedA, err := initiate(fam, client, cfg, runs)
			client.Close()
			if !watchdog.Stop() {
				t.Fatal("routed session still running after 30 s")
			}
			if err != nil {
				t.Fatalf("routed client: %v", err)
			}
			srv := <-servedc
			if srv.err != nil {
				t.Fatalf("routed server: %v", srv.err)
			}
			if err := <-handled; err != nil {
				t.Fatalf("HandleConn: %v", err)
			}
			if shard != backend.Name {
				t.Fatalf("admitted by %q, want %q", shard, backend.Name)
			}

			for _, side := range []struct {
				who            string
				direct, routed sideOutcome
			}{{"client", directA, routedA}, {"server", directB, srv.out}} {
				if side.routed.setup != side.direct.setup {
					t.Errorf("%s: set-up Ledger differs through the dispatcher: %v vs %v", side.who, side.routed.setup, side.direct.setup)
				}
				if len(side.routed.res) != runs || len(side.direct.res) != runs {
					t.Fatalf("%s: %d routed / %d direct results for %d runs", side.who, len(side.routed.res), len(side.direct.res), runs)
				}
				for r := 0; r < runs; r++ {
					got, want := side.routed.res[r], side.direct.res[r]
					if want.SecureComparisons+want.CachedComparisons == 0 {
						t.Fatalf("%s run %d: no comparisons — the session is vacuous", side.who, r)
					}
					if !metrics.ExactMatch(got.Labels, want.Labels) {
						t.Errorf("%s run %d: labels differ through the dispatcher", side.who, r)
					}
					if got.Leakage != want.Leakage {
						t.Errorf("%s run %d: Ledger differs through the dispatcher: %v vs %v", side.who, r, got.Leakage, want.Leakage)
					}
					if got.SecureComparisons != want.SecureComparisons || got.CachedComparisons != want.CachedComparisons ||
						got.CiphertextsSent != want.CiphertextsSent {
						t.Errorf("%s run %d: %d secure / %d cached comparisons, %d ciphertexts routed; %d / %d, %d direct", side.who, r,
							got.SecureComparisons, got.CachedComparisons, got.CiphertextsSent,
							want.SecureComparisons, want.CachedComparisons, want.CiphertextsSent)
					}
				}
			}

			merged, rows := d.FleetSnapshot()
			for _, row := range rows {
				if row.Err != nil {
					t.Fatalf("stats pull from %s: %v", row.Name, row.Err)
				}
			}
			if merged.Opened != 1 || merged.Failed != 0 || merged.Runs != runs {
				t.Fatalf("fleet rollup after 1 routed session of %d runs: opened %d, failed %d, runs %d",
					runs, merged.Opened, merged.Failed, merged.Runs)
			}
		})
	}
}
