package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// serveSpec sizes the serving-tier workload: short enhanced-horizontal
// sessions over TCP loopback, through a dispatcher to in-process shards.
type serveSpec struct {
	n             int // points over both parties
	paillier, rsa int
	shards        int
}

func (p serveSpec) String() string {
	return fmt.Sprintf("enhanced n=%d grid=%d eps=%d paillier=%d engine=masked W=1, TCP loopback via dispatcher to %d shards, %d closed-loop clients",
		p.n, layout64.grid, layout64.cell, p.paillier, p.shards, clients)
}

type serveInstance struct {
	spec         serveSpec
	cfg          core.Config
	alice, bob   [][]float64
	wantA, wantB []int
	text         string
}

func buildServe(spec serveSpec, seed int64) (*serveInstance, error) {
	at := layout64.place(rand.New(rand.NewSource(seed)))
	hands := deal(layout64.template(spec.n), 2)
	in := &serveInstance{
		spec:  spec,
		cfg:   benchConfig(seed, layout64, spec.paillier, spec.rsa, compare.EngineMasked, 1),
		alice: at.points(hands[0]),
		bob:   at.points(hands[1]),
	}
	ea, eb, epsSq, err := encodeSides(in.cfg, in.alice, in.bob)
	if err != nil {
		return nil, err
	}
	in.wantA, _, in.wantB, _ = core.SimulateHorizontal(ea, eb, epsSq, in.cfg.MinPts)
	in.text = fmt.Sprintf("alice %v\nbob %v\n", in.alice, in.bob)
	return in, nil
}

// encodeSides encodes both parties' points and the threshold for the
// horizontal oracle.
func encodeSides(cfg core.Config, alice, bob [][]float64) (ea, eb [][]int64, epsSq int64, err error) {
	codec, err := cfg.Codec()
	if err != nil {
		return nil, nil, 0, err
	}
	if ea, err = codec.EncodePoints(alice); err != nil {
		return nil, nil, 0, err
	}
	if eb, err = codec.EncodePoints(bob); err != nil {
		return nil, nil, 0, err
	}
	epsSq, err = codec.EpsSquared(cfg.Eps)
	return ea, eb, epsSq, err
}

func (in *serveInstance) inputs() string      { return in.text }
func (in *serveInstance) config() core.Config { return in.cfg }

func (in *serveInstance) exhaustivePairs() int64 {
	return 2 * int64(len(in.alice)) * int64(len(in.bob))
}

func (in *serveInstance) plain() ([][]int64, int64, int, error) {
	return plainOf(in.cfg, concat(in.alice, in.bob))
}

// tier is the in-process serving tier: shards behind TCP listeners, and
// a dispatcher in front of them on its own listener.
type tier struct {
	in     *serveInstance
	rec    *recorder
	front  *transport.Listener
	disp   *dispatch.Dispatcher
	shards []*transport.Listener
	names  []string
	mgrs   []*core.SessionManager

	wg       sync.WaitGroup
	conns    atomic.Int64
	badBob   atomic.Int64 // serving-side labels that missed the oracle
	serveErr atomic.Int64 // serving-side sessions that ended in an error
}

func startTier(in *serveInstance, rec *recorder) (*tier, error) {
	t := &tier{in: in, rec: rec}
	addrs := make(map[string]string)
	for i := 0; i < in.spec.shards; i++ {
		l, err := transport.NewListener("127.0.0.1:0")
		if err != nil {
			t.closeListeners()
			return nil, err
		}
		// Shards are named, not addressed, so that ring placement does
		// not depend on the ports the kernel hands out.
		name := fmt.Sprintf("shard-%d", i)
		addrs[name] = l.Addr()
		mgr := core.NewSessionManager(0)
		t.shards, t.names, t.mgrs = append(t.shards, l), append(t.names, name), append(t.mgrs, mgr)
		backend := &dispatch.Backend{Name: name, Mgr: mgr}
		cfg := mgr.Configure(in.cfg)
		t.accept(l, func(conn transport.Conn) { t.serveOne(backend, cfg, name, conn) })
	}
	disp, err := dispatch.New(dispatch.Options{
		Shards:         t.names,
		HealthInterval: -1, // no background pings inside the measurement
		Dial:           func(name string) (transport.Conn, error) { return transport.Dial(addrs[name]) },
	})
	if err != nil {
		t.closeListeners()
		return nil, err
	}
	t.disp = disp
	if t.front, err = transport.NewListener("127.0.0.1:0"); err != nil {
		t.closeListeners()
		return nil, err
	}
	t.accept(t.front, func(conn transport.Conn) {
		// Sheds and client hang-ups come back as errors for an accept
		// loop's log; the clients count them from their own side.
		_ = disp.HandleConn(conn)
	})
	return t, nil
}

// accept runs l's accept loop, one goroutine per connection, all of them
// waited for by stop.
func (t *tier) accept(l *transport.Listener, handle func(transport.Conn)) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				handle(conn)
			}()
		}
	}()
}

// serveOne is one shard-side session: control preamble, establishment,
// Run until the client closes.
func (t *tier) serveOne(backend *dispatch.Backend, cfg core.Config, name string, raw transport.Conn) {
	conn := t.rec.wrap(raw, name, fmt.Sprintf("%s#%d", name, t.conns.Add(1)), false)
	h, ok, err := backend.Accept(conn)
	if err != nil {
		t.serveErr.Add(1)
		return
	}
	if !ok {
		return // ping, stats pull or shed: answered and closed by the backend
	}
	defer conn.Close()
	bindMeter(conn, h.Meter())
	sess, err := core.NewEnhancedHorizontalSession(h.Meter(), cfg, core.RoleBob, t.in.bob)
	if err != nil {
		h.End(err)
		t.serveErr.Add(1)
		return
	}
	h.Activate()
	err = serveUntilClosed(sess, func(r *core.Result) {
		h.RunDone()
		if !metrics.ExactMatch(r.Labels, t.in.wantB) {
			t.badBob.Add(1)
		}
	})
	h.End(err)
	if err != nil {
		t.serveErr.Add(1)
	}
}

func (t *tier) closeListeners() {
	for _, l := range t.shards {
		l.Close()
	}
	if t.front != nil {
		t.front.Close()
	}
}

// stop drains the dispatcher, closes every listener and waits for every
// goroutine the tier started.
func (t *tier) stop() (core.ManagerSnapshot, map[string]dispatch.ShardLoad) {
	snap, _, _ := t.disp.Drain(5 * time.Second)
	loads := t.disp.Loads()
	t.closeListeners()
	t.wg.Wait()
	return snap, loads
}

// keys picks one session key per client such that client c's sessions
// hash onto shard c mod shards: the load is the same on every run.
func (t *tier) keys() []string {
	ring := dispatch.NewRing(0)
	for _, name := range t.names {
		ring.Add(name)
	}
	keys := make([]string, clients)
	for c := range keys {
		for salt := 0; ; salt++ {
			keys[c] = fmt.Sprintf("client-%d/%d", c, salt)
			if shard, _ := ring.Pick(keys[c]); shard == t.names[c%len(t.names)] {
				break
			}
		}
	}
	return keys
}

// session is one client-side session, start to finish.
type session struct {
	setup, run, total float64
	wire              transport.Stats
	res               *core.Result
	window            window // the whole session is the timed operation
}

// dialSession runs one whole session through the dispatcher: dial,
// hello/admit, handshake, Run, Close.
func (t *tier) dialSession(party, key string, seq int) (session, error) {
	var s session
	s.window = window{open: t.rec.now(), kind: party}
	s.window.from = s.window.open
	start := time.Now()
	raw, err := transport.Dial(t.front.Addr())
	if err != nil {
		return s, err
	}
	m := t.rec.metered(raw, party, fmt.Sprintf("%s#%d", party, seq), false)
	defer m.Close()
	if _, err := dispatch.Hello(m, key); err != nil {
		return s, err
	}
	sess, err := core.NewEnhancedHorizontalSession(m, t.in.cfg, core.RoleAlice, t.in.alice)
	if err != nil {
		return s, err
	}
	s.setup = secs(time.Since(start))
	s.window.ready = t.rec.now()
	runStart := time.Now()
	if s.res, err = sess.Run(); err != nil {
		return s, err
	}
	s.run = secs(time.Since(runStart))
	if err := sess.Close(); err != nil {
		return s, err
	}
	s.total = secs(time.Since(start))
	s.window.to = t.rec.now()
	s.wire = m.Stats()
	return s, nil
}

// burstSessions is the number of sessions each client runs back to back
// between two reference blocks.
const burstSessions = 3

// measure runs the closed loop in bursts until the time is up: in a
// burst each client opens its next session when its previous one has
// closed, burstSessions times, and the tier stays up between bursts.
func (in *serveInstance) measure(d time.Duration, minOps int, rec *recorder, acc *samples) error {
	t, err := startTier(in, rec)
	if err != nil {
		return err
	}
	keys := t.keys()
	bursts := (minOps + clients*burstSessions - 1) / (clients * burstSessions)
	seq := 0
	err = acc.loop(d, bursts, func(int) error {
		in.burst(t, keys, seq, rec, acc)
		seq += burstSessions
		return nil
	})
	snap, loads := t.stop()
	if err != nil {
		return err
	}
	if n := t.badBob.Load(); n > 0 {
		acc.failed += int(n)
		acc.notes = append(acc.notes, fmt.Sprintf("%d serving-side runs returned labels that differ from the plaintext oracle", n))
	}
	if n := t.serveErr.Load(); n > 0 {
		acc.failed += int(n)
		acc.notes = append(acc.notes, fmt.Sprintf("%d serving-side sessions ended in an error", n))
	}
	if acc.tier == nil {
		acc.tier = &tierStats{}
	}
	acc.tier.opened += snap.Opened
	acc.tier.failed += snap.Failed
	for _, l := range loads {
		acc.tier.admitted += l.Admitted
		acc.tier.sheds += l.Sheds
	}
	return nil
}

// burst is one bracket of the closed loop: every client's next
// burstSessions sessions, numbered from seq.
func (in *serveInstance) burst(t *tier, keys []string, seq int, rec *recorder, acc *samples) {
	type outcome struct {
		party string
		seq   int
		s     session
		err   error
	}
	var done []outcome
	at, _ := acc.bracket(0, func() error {
		var mu sync.Mutex
		var wg sync.WaitGroup
		heap := heapAllocated()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				party := fmt.Sprintf("client-%d", c)
				for i := seq; i < seq+burstSessions; i++ {
					s, err := t.dialSession(party, keys[c], i)
					mu.Lock()
					done = append(done, outcome{party, i, s, err})
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		acc.alloc += heapAllocated() - heap
		return nil
	})
	for _, o := range done {
		acc.attempted++
		if o.err != nil {
			acc.fail("%s session %d: %v", o.party, o.seq, o.err)
			continue
		}
		if !metrics.ExactMatch(o.s.res.Labels, in.wantA) {
			acc.fail("%s session %d: labels differ from the plaintext oracle", o.party, o.seq)
		}
		acc.brackets[at].ops++
		acc.setup = append(acc.setup, obs{o.s.setup, at})
		acc.run = append(acc.run, obs{o.s.total, at})
		acc.resume = append(acc.resume, obs{o.s.run, at})
		acc.scratch = append(acc.scratch, obs{o.s.total, at})
		acc.bytes += o.s.wire.Total()
		acc.frames += o.s.wire.Messages()
		acc.counters = append(acc.counters, counters{
			"core.secure_cmps":  o.s.res.SecureComparisons,
			"core.cts_up":       o.s.res.CiphertextsUplink,
			"core.cts_down":     o.s.res.CiphertextsDownlink,
			"core.ledger_total": ledgerTotal(o.s.res.Leakage),
			"transport.frames":  o.s.wire.Messages(),
		})
		if rec != nil {
			acc.windows = append(acc.windows, o.s.window)
		}
	}
}

// tierStats is what the serving tier counted over the timed phases.
type tierStats struct {
	opened, failed  int   // core.ManagerSnapshot, merged over the shards
	admitted, sheds int64 // dispatch.ShardLoad, summed over the shards
}
