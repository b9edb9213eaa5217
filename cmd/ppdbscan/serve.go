package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/transport"
)

// The concurrent serving stack. `ppdbscan serve` is one server process
// holding many independent privacy-preserving clustering sessions at
// once: an accept loop hands every inbound client its own session
// goroutine, session id, and traffic Meter (core.SessionManager), while
// all sessions share one bounded crypto worker pool (-workers) so N
// concurrent clients contend for the CPU instead of oversubscribing it.
// One client's disconnect or failed handshake is logged and served
// around — the process keeps accepting. SIGINT starts a graceful drain:
// no new accepts, in-flight runs finish (up to -drain, then their
// connections are force-closed), and the aggregate meter summary prints.
//
// `ppdbscan loadgen` is the matching load driver: C concurrent client
// sessions × R clustering runs each against one serve process, reporting
// wall clock, aggregate bytes, runs/sec, and p50/p95 per-run latency —
// the CLI face of what the bench `serve` workload measures (ops_per_s).

// cmdServe runs the concurrent session server as the serving party
// (RoleBob): every accepted client gets its own session (keygen,
// handshake, and grid-index exchange at accept time), and all sessions
// share the process-wide crypto pool.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	p := addProtocolFlags(fs)
	listen := fs.String("listen", ":9000", "address to listen on")
	name := fs.String("name", "", "shard name reported in admission and health replies (default: the bound listen address)")
	dataPath := fs.String("data", "", "CSV file with this party's points (one point per line)")
	workers := fs.String("workers", "", "shared crypto pool size across all sessions (empty or 0 = GOMAXPROCS; auto = GOMAXPROCS divided across -colocated shard processes)")
	colocated := fs.Int("colocated", 1, "shard processes sharing this host; divides the 'auto' crypto pool sizing so co-located shards don't oversubscribe the CPU")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown wait for in-flight sessions before force-closing")
	maxSessions := fs.Int("max-sessions", 0, "admission bound on concurrently live sessions (0 = unlimited); excess connections are refused before the handshake")
	idle := fs.Duration("idle-timeout", 0, "per-session read deadline: a client silent this long mid-session is dropped (0 = off)")
	keepalive := fs.Duration("keepalive", 3*time.Minute, "TCP keepalive probe period on session connections (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	poolWorkers, err := parseWorkers(*workers, *colocated)
	if err != nil {
		return err
	}
	if *maxSessions < 0 {
		return fmt.Errorf("serve requires -max-sessions ≥ 0")
	}
	cfg, err := p.config()
	if err != nil {
		return err
	}
	points, err := readCSV(*dataPath)
	if err != nil {
		return err
	}
	lis, err := transport.NewListener(*listen)
	if err != nil {
		return err
	}
	defer lis.Close()
	lis.SetConnOptions(*idle, *keepalive)
	mgr := core.NewSessionManager(poolWorkers)
	mgr.SetMaxSessions(*maxSessions)
	cfg = mgr.Configure(cfg)
	if *name == "" {
		*name = lis.Addr()
	}
	backend := &dispatch.Backend{Name: *name, Mgr: mgr}
	fmt.Printf("serve: shard %s listening on %s (mode %s, parallel %d, crypto pool %d workers, max sessions %d, idle timeout %v)\n",
		*name, lis.Addr(), p.mode, cfg.Parallel, mgr.Pool().Workers(), *maxSessions, *idle)

	// SIGINT/SIGTERM close the listener; the accept loop falls through to
	// the drain.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			fmt.Println("serve: shutdown requested; refusing new sessions, draining in-flight runs")
			lis.Close()
		}
	}()

	var wg sync.WaitGroup
	for {
		conn, err := lis.Accept()
		if errors.Is(err, transport.ErrClosed) {
			break
		}
		if err != nil {
			// A failed accept is one peer's problem, not the server's; the
			// pause keeps a persistent failure (e.g. fd exhaustion) from
			// busy-spinning the loop.
			fmt.Fprintf(os.Stderr, "serve: accept: %v\n", err)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		wg.Add(1)
		go func(conn transport.Conn) {
			defer wg.Done()
			serveSession(backend, conn, p.mode, cfg, points)
		}(conn)
	}
	if !mgr.Drain(*drain) {
		fmt.Println("serve: drain timed out; force-closed the remaining sessions")
	}
	wg.Wait()
	snap := mgr.Snapshot()
	fmt.Printf("serve: shut down after %d sessions (%d closed, %d failed), %d runs total\n",
		snap.Opened, snap.Closed, snap.Failed, snap.Runs)
	fmt.Printf("serve: aggregate traffic sent %d bytes, received %d bytes in %d messages\n",
		snap.Traffic.BytesSent, snap.Traffic.BytesRecv, snap.Traffic.Messages())
	return nil
}

// parseWorkers resolves the -workers flag: empty or "0" defers to
// GOMAXPROCS (the SessionManager default), "auto" divides GOMAXPROCS
// across the co-located shard processes on this host (never below 1),
// and a plain integer is taken as-is.
func parseWorkers(s string, colocated int) (int, error) {
	if colocated < 1 {
		return 0, fmt.Errorf("serve requires -colocated ≥ 1")
	}
	switch s {
	case "", "0":
		return 0, nil
	case "auto":
		w := runtime.GOMAXPROCS(0) / colocated
		if w < 1 {
			w = 1
		}
		return w, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("serve requires -workers to be a non-negative integer or 'auto'")
	}
	return n, nil
}

// serveSession runs one client's whole session lifecycle on its own
// goroutine, starting with the serving tier's control preamble: pings
// and stats pulls are answered and closed by the backend, admission
// failures are shed with a typed refusal before any keygen, and only an
// admitted hello proceeds to the protocol handshake. Errors — a refused
// registration, a failed handshake, a mid-run disconnect — end this
// session only; the accept loop never sees them.
func serveSession(backend *dispatch.Backend, conn transport.Conn, mode string, cfg core.Config, points [][]float64) {
	h, ok, err := backend.Accept(conn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return
	}
	if !ok {
		return // ping, stats, or shed — fully handled, conn closed
	}
	defer conn.Close()
	sess, err := sessionByMode(mode, h.Meter(), cfg, core.RoleBob, points)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: session %d: establishment failed: %v\n", h.ID(), err)
		h.End(err)
		return
	}
	h.Activate()
	fmt.Printf("serve: session %d established, setup leakage %v\n", h.ID(), sess.SetupLeakage())
	for {
		res, err := sess.Run()
		if errors.Is(err, core.ErrSessionClosed) {
			fmt.Printf("serve: session %d closed after %d runs, %d appends\n", h.ID(), sess.Runs(), sess.Appends())
			h.End(nil)
			return
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: session %d: run failed: %v\n", h.ID(), err)
			h.End(err)
			return
		}
		h.RunDone()
		fmt.Printf("serve: session %d run %d (%d appends): %d labels, %d clusters, %d cached cmps, run leakage %v\n",
			h.ID(), sess.Runs(), sess.Appends(), len(res.Labels), res.NumClusters, res.CachedComparisons, res.Leakage)
	}
}

// latencyRecorder collects per-run wall-clock latencies across the
// concurrent loadgen clients.
type latencyRecorder struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (l *latencyRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

func (l *latencyRecorder) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.durs)
}

// percentile returns the nearest-rank p-th percentile of the recorded
// latencies (0 with none recorded).
func (l *latencyRecorder) percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration{}, l.durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// shardBreakdown splits the loadgen tallies by the backend that served
// (or shed) each client, keyed on the shard name the admission preamble
// reports — through the dispatcher that is the actual serving backend,
// not the dispatcher itself, so the summary shows how the tier spread
// the load.
type shardBreakdown struct {
	mu sync.Mutex
	by map[string]*shardTally
}

type shardTally struct {
	runs  int64
	sheds int64
	lat   latencyRecorder
}

func (b *shardBreakdown) tally(shard string) *shardTally {
	if shard == "" {
		shard = "(unknown)"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.by == nil {
		b.by = make(map[string]*shardTally)
	}
	t := b.by[shard]
	if t == nil {
		t = &shardTally{}
		b.by[shard] = t
	}
	return t
}

func (b *shardBreakdown) shed(shard string) {
	t := b.tally(shard)
	b.mu.Lock()
	t.sheds++
	b.mu.Unlock()
}

func (b *shardBreakdown) run(shard string, d time.Duration) {
	t := b.tally(shard)
	b.mu.Lock()
	t.runs++
	b.mu.Unlock()
	t.lat.add(d)
}

// report prints one per-backend line when the breakdown saw more than
// one shard name (or any shed), so single-server runs stay one-line.
func (b *shardBreakdown) report(wall time.Duration) {
	b.mu.Lock()
	names := make([]string, 0, len(b.by))
	totalSheds := int64(0)
	for n, t := range b.by {
		names = append(names, n)
		totalSheds += t.sheds
	}
	b.mu.Unlock()
	if len(names) < 2 && totalSheds == 0 {
		return
	}
	sort.Strings(names)
	for _, n := range names {
		b.mu.Lock()
		t := b.by[n]
		runs, sheds := t.runs, t.sheds
		b.mu.Unlock()
		fmt.Printf("loadgen: shard %s: %d runs, %.2f runs/sec, p50 %v, p95 %v, %d sheds\n",
			n, runs, float64(runs)/max(wall.Seconds(), 1e-9),
			t.lat.percentile(50).Round(time.Millisecond), t.lat.percentile(95).Round(time.Millisecond), sheds)
	}
}

// ctsTally accumulates the client-side Paillier ciphertext counts
// across every loadgen run, split by direction: uplink is the request
// leg (the comparison uplink "full" packing shrinks), downlink the
// response leg (the masked replies "slots" packing shrinks).
type ctsTally struct {
	up, down atomic.Int64
}

func (t *ctsTally) add(res *core.Result) {
	t.up.Add(res.CiphertextsUplink)
	t.down.Add(res.CiphertextsDownlink)
}

// cmdLoadgen drives C concurrent client sessions × R runs each against
// one serve process and reports aggregate throughput plus per-run
// latency percentiles.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	p := addProtocolFlags(fs)
	connect := fs.String("connect", "", "address of the serving party")
	dataPath := fs.String("data", "", "CSV file with the client-side points (one point per line)")
	clients := fs.Int("clients", 2, "concurrent client sessions C")
	runs := fs.Int("runs", 1, "clustering runs per client R")
	appends := fs.Int("appends", 0, "streaming appends per client after the initial runs (horizontal modes; the server side appends nothing)")
	appendBatch := fs.Int("append-batch", 0, "points per appended batch, taken from the tail of -data")
	window := fs.Bool("window", false, "slide a fixed-width window: every appended batch also expires the oldest live generation")
	retract := fs.Int("retract", 0, "after the runs and appends, each client retracts this many of its oldest live points and re-clusters")
	keyPrefix := fs.String("session-key", "client", "session key prefix; client c greets with '<prefix>-<c>', the consistent-hash routing input")
	shedRetries := fs.Int("shed-retries", 0, "times a shed client re-dials for admission before giving up")
	shedWait := fs.Duration("shed-wait", 200*time.Millisecond, "wait between shed retries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("loadgen requires -connect host:port")
	}
	if *clients < 1 || *runs < 1 {
		return fmt.Errorf("loadgen requires -clients ≥ 1 and -runs ≥ 1")
	}
	if *retract < 0 {
		return fmt.Errorf("loadgen requires -retract ≥ 0")
	}
	cfg, err := p.config()
	if err != nil {
		return err
	}
	points, err := readCSV(*dataPath)
	if err != nil {
		return err
	}
	initial, batches, err := splitAppends(points, *appends, *appendBatch)
	if err != nil {
		return err
	}

	var group transport.MeterGroup
	var runsDone atomic.Int64
	var lat latencyRecorder
	var cts ctsTally
	var breakdown shardBreakdown
	errs := make([]error, *clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("%s-%d", *keyPrefix, c)
			errs[c] = driveClient(&group, *connect, key, *shedRetries, *shedWait, p.mode, cfg, initial, batches, *runs, *window, *retract, &runsDone, &lat, &cts, &breakdown)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	failed := 0
	for c, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "loadgen: client %d: %v\n", c, err)
		}
	}
	agg := group.Stats()
	done := runsDone.Load()
	extraRuns := len(batches)
	if *retract > 0 {
		extraRuns++
	}
	totalRuns := int64(*clients) * int64(*runs+extraRuns)
	fmt.Printf("loadgen: %d clients × %d runs + %d appends: %d/%d runs ok, %d clients failed\n",
		*clients, *runs, len(batches), done, totalRuns, failed)
	fmt.Printf("loadgen: wall %v, aggregate %d bytes in %d messages, %.2f runs/sec\n",
		wall.Round(time.Millisecond), agg.Total(), agg.Messages(),
		float64(done)/max(wall.Seconds(), 1e-9))
	fmt.Printf("loadgen: client paillier ciphertexts: %d uplink, %d downlink\n",
		cts.up.Load(), cts.down.Load())
	if lat.count() > 0 {
		fmt.Printf("loadgen: per-run latency p50 %v, p95 %v over %d runs\n",
			lat.percentile(50).Round(time.Millisecond), lat.percentile(95).Round(time.Millisecond), lat.count())
	}
	breakdown.report(wall)
	if failed > 0 {
		return fmt.Errorf("loadgen: %d of %d clients failed", failed, *clients)
	}
	return nil
}

// driveClient runs one loadgen client: dial, greet the tier with the
// session key (retrying a typed shed up to shedRetries times — the
// refusal lands before any keygen, so a retry is cheap), establish a
// session over the initial points, R runs, then one append+run (or,
// with window set, window-slide+run) per batch, an optional
// retract+run, close.
func driveClient(group *transport.MeterGroup, connect, key string, shedRetries int, shedWait time.Duration, mode string, cfg core.Config, initial [][]float64, batches [][][]float64, runs int, window bool, retract int, runsDone *atomic.Int64, lat *latencyRecorder, cts *ctsTally, breakdown *shardBreakdown) error {
	var conn transport.Conn
	var shard string
	for attempt := 0; ; attempt++ {
		c, err := transport.Dial(connect)
		if err != nil {
			return err
		}
		s, err := dispatch.Hello(c, key)
		if err == nil {
			conn, shard = c, s
			break
		}
		c.Close()
		if errors.Is(err, core.ErrServerFull) || errors.Is(err, core.ErrDraining) {
			breakdown.shed(s)
			if attempt < shedRetries {
				time.Sleep(shedWait)
				continue
			}
		}
		return fmt.Errorf("admission: %w", err)
	}
	defer conn.Close()
	meter := group.New(conn)
	sess, err := sessionByMode(mode, meter, cfg, core.RoleAlice, initial)
	if err != nil {
		return fmt.Errorf("session establishment: %w", err)
	}
	timedRun := func() error {
		runStart := time.Now()
		res, err := sess.Run()
		if err != nil {
			return err
		}
		cts.add(res)
		d := time.Since(runStart)
		lat.add(d)
		breakdown.run(shard, d)
		runsDone.Add(1)
		return nil
	}
	for i := 0; i < runs; i++ {
		if err := timedRun(); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
	}
	for i, batch := range batches {
		if window {
			if err := sess.WindowAppend(batch); err != nil {
				return fmt.Errorf("window append %d: %w", i+1, err)
			}
		} else if err := sess.Append(batch); err != nil {
			return fmt.Errorf("append %d: %w", i+1, err)
		}
		if err := timedRun(); err != nil {
			return fmt.Errorf("post-append run %d: %w", i+1, err)
		}
	}
	if retract > 0 {
		ids := make([]int, retract)
		for i := range ids {
			ids[i] = i
		}
		if err := sess.Retract(ids); err != nil {
			return fmt.Errorf("retract: %w", err)
		}
		if err := timedRun(); err != nil {
			return fmt.Errorf("post-retract run: %w", err)
		}
	}
	return sess.Close()
}

// splitAppends carves K append batches of B points off the tail of the
// dataset, leaving the head as the session's initial data.
func splitAppends(points [][]float64, appends, batch int) (initial [][]float64, batches [][][]float64, err error) {
	if appends < 0 || batch < 0 || (appends > 0) != (batch > 0) {
		return nil, nil, fmt.Errorf("streaming needs both -appends ≥ 1 and -append-batch ≥ 1 (or neither)")
	}
	if appends == 0 {
		return points, nil, nil
	}
	tail := appends * batch
	if len(points) <= tail {
		return nil, nil, fmt.Errorf("dataset of %d points cannot seed a session and feed %d appends × %d points", len(points), appends, batch)
	}
	initial = points[:len(points)-tail]
	for i := 0; i < appends; i++ {
		start := len(points) - tail + i*batch
		batches = append(batches, points[start:start+batch])
	}
	return initial, batches, nil
}
