// Command ppdbscan runs privacy-preserving distributed DBSCAN clustering:
// the paper's two-party protocols over in-process pipes (demo mode) or
// real TCP between two processes (alice/bob modes for one-shot runs,
// serve/client for long-lived sessions that amortize keygen, handshake,
// and the grid-index exchange across many clustering requests), plus the
// paper's experiments (E1–E12) and a synthetic dataset generator. `serve` is a
// concurrent multi-session server: it accepts any number of clients,
// gives each its own session goroutine and traffic meter, shares one
// bounded crypto pool across them (-workers), survives individual client
// failures, and drains gracefully on SIGINT; `loadgen` drives C
// concurrent clients × R runs each against it.
//
// Usage:
//
//	ppdbscan demo        -mode horizontal|enhanced|vertical|arbitrary [flags]
//	ppdbscan alice       -mode horizontal|enhanced|vertical -listen :9000 -data a.csv [flags]
//	ppdbscan bob         -mode horizontal|enhanced|vertical -connect host:9000 -data b.csv [flags]
//	ppdbscan serve       -mode horizontal|enhanced|vertical -listen :9000 -data b.csv [-name shard-a] [-workers N|auto [-colocated K]] [-drain 30s] [-max-sessions N] [-idle-timeout 2m] [flags]
//	ppdbscan dispatch    -listen :9100 -shards host:9001,host:9002 [-shed N] [-health 2s] [-drain 30s]
//	ppdbscan client      -mode horizontal|enhanced|vertical -connect host:9000 -data a.csv -runs 3 [-session-key K] [-appends K -append-batch B [-window]] [-retract N] [flags]
//	ppdbscan loadgen     -mode horizontal|enhanced|vertical -connect host:9000 -data a.csv -clients 4 -runs 2 [-session-key P -shed-retries N] [-appends K -append-batch B [-window]] [-retract N] [flags]
//	ppdbscan gen         -kind blobs|moons|rings|bridged -n 200 -out points.csv [flags]
//	ppdbscan experiments -id all|e1..e12 [-quick] [-seed N]
//	ppdbscan verify      [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "alice", "bob":
		err = cmdParty(os.Args[1], os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "dispatch":
		err = cmdDispatch(os.Args[2:])
	case "client":
		err = cmdClient(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ppdbscan: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppdbscan:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `ppdbscan — privacy-preserving distributed DBSCAN (Liu et al., EDBT 2012 / TDP 2013)

commands:
  demo         run a protocol between two in-process parties on synthetic data
  alice, bob   run one party of a one-shot protocol over TCP
  serve        concurrent multi-session server: accept any number of clients,
               one session each, over a shared bounded crypto pool; SIGINT drains
  dispatch     serving-tier front door: consistent-hash sessions across N serve
               shards, splice the byte stream through, shed load before keygen,
               health-check the fleet; SIGINT drains and prints a fleet rollup
  client       drive a long-lived session: N clustering runs over one key exchange
  loadgen      drive C concurrent client sessions x R runs each against a server
               or dispatcher (per-shard breakdown in the summary)
  gen          generate a synthetic dataset CSV
  experiments  regenerate the paper's evaluation tables (e1..e12 or all)
  verify       audit every protocol family against its plaintext oracle

run 'ppdbscan <command> -h' for flags.
`)
}

// protocolFlags carries the options shared by demo/alice/bob/serve/client.
type protocolFlags struct {
	mode      string
	eps       float64
	minPts    int
	grid      int
	engine    string
	selection string
	batching  string
	packing   string
	pruning   string
	parallel  int
	seed      int64
}

func addProtocolFlags(fs *flag.FlagSet) *protocolFlags {
	p := &protocolFlags{}
	fs.StringVar(&p.mode, "mode", "horizontal", "protocol: horizontal|enhanced|vertical|arbitrary")
	fs.Float64Var(&p.eps, "eps", 4, "DBSCAN Eps in grid units")
	fs.IntVar(&p.minPts, "minpts", 4, "DBSCAN MinPts (self-inclusive)")
	fs.IntVar(&p.grid, "grid", 64, "integer grid size (MaxCoord = grid-1)")
	fs.StringVar(&p.engine, "engine", "masked", "secure comparison engine: ympp|masked")
	fs.StringVar(&p.selection, "selection", "scan", "§5 selection strategy: scan|quickselect")
	fs.StringVar(&p.batching, "batching", "batched", "comparison round structure: batched|sequential")
	fs.StringVar(&p.packing, "packing", "", "plaintext encoding: slots (slot-packed ciphertext frames)|full (slots plus the packed comparison uplink)|off (one value per ciphertext); default slots, or off under -batching sequential")
	fs.StringVar(&p.pruning, "pruning", "grid", "candidate-set structure: grid (Eps-grid candidate index)|off (exhaustive)")
	fs.IntVar(&p.parallel, "parallel", 1, "scheduler width W: each pass settles its secure decisions over W worker channels (1 = one worker on the bare connection; >1 multiplexes W channels)")
	fs.Int64Var(&p.seed, "seed", 1, "seed for datasets and permutations")
	return p
}

func (p *protocolFlags) config() (core.Config, error) {
	engine, err := compare.ParseEngine(p.engine)
	if err != nil {
		return core.Config{}, err
	}
	selection, err := core.ParseSelection(p.selection)
	if err != nil {
		return core.Config{}, err
	}
	batching := core.BatchMode("")
	if p.batching != "" { // empty defers to core's default (batched)
		batching, err = core.ParseBatchMode(p.batching)
		if err != nil {
			return core.Config{}, err
		}
	}
	packing := core.PackMode("")
	if p.packing != "" { // empty defers to core's default (slots when batched, else off)
		packing, err = core.ParsePackMode(p.packing)
		if err != nil {
			return core.Config{}, err
		}
	}
	pruning := core.PruneMode("")
	if p.pruning != "" { // empty defers to core's default (grid)
		pruning, err = core.ParsePruneMode(p.pruning)
		if err != nil {
			return core.Config{}, err
		}
	}
	return core.Config{
		Eps:       p.eps,
		MinPts:    p.minPts,
		MaxCoord:  int64(p.grid - 1),
		Engine:    engine,
		Selection: selection,
		Batching:  batching,
		Packing:   packing,
		Pruning:   pruning,
		Parallel:  p.parallel,
		Seed:      p.seed,
		// Demo/CLI runs favour responsiveness over key strength.
		PaillierBits: 512,
		RSABits:      512,
	}, nil
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	p := addProtocolFlags(fs)
	n := fs.Int("n", 48, "total points")
	kind := fs.String("kind", "blobs", "dataset: blobs|moons|rings|bridged")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := p.config()
	if err != nil {
		return err
	}
	d, err := makeDataset(*kind, *n, p.seed)
	if err != nil {
		return err
	}
	// -eps is interpreted in grid units: after quantization the data lives
	// on the [0, grid-1]² integer lattice.
	q, _ := dataset.Quantize(d, p.grid)

	fmt.Printf("dataset %s quantized to %dx%d grid, eps=%.1f minPts=%d engine=%s\n",
		q.Name, p.grid, p.grid, cfg.Eps, cfg.MinPts, cfg.Engine)

	ca, cb := transport.Pipe()
	ma, mb := transport.NewMeter(ca), transport.NewMeter(cb)
	var ra, rb *core.Result

	switch p.mode {
	case "horizontal", "enhanced":
		split, err := partition.HorizontalRandom(q.Points, 0.5, p.seed)
		if err != nil {
			return err
		}
		aliceFn, bobFn := core.HorizontalAlice, core.HorizontalBob
		if p.mode == "enhanced" {
			aliceFn, bobFn = core.EnhancedHorizontalAlice, core.EnhancedHorizontalBob
		}
		err = transport.RunPair(ma, mb,
			func(transport.Conn) error {
				r, err := aliceFn(ma, cfg, split.Alice)
				ra = r
				return err
			},
			func(transport.Conn) error {
				r, err := bobFn(mb, cfg, split.Bob)
				rb = r
				return err
			},
		)
		if err != nil {
			return err
		}
		fmt.Printf("alice: %d points, %d clusters, leakage %v\n", len(split.Alice), ra.NumClusters, ra.Leakage)
		fmt.Printf("bob:   %d points, %d clusters, leakage %v\n", len(split.Bob), rb.NumClusters, rb.Leakage)
	case "vertical":
		split, err := partition.Vertical(q.Points, 1)
		if err != nil {
			return err
		}
		err = transport.RunPair(ma, mb,
			func(transport.Conn) error {
				r, err := core.VerticalAlice(ma, cfg, split.Alice)
				ra = r
				return err
			},
			func(transport.Conn) error {
				r, err := core.VerticalBob(mb, cfg, split.Bob)
				rb = r
				return err
			},
		)
		if err != nil {
			return err
		}
		fmt.Printf("both parties: %d records, %d clusters, leakage %v\n", len(q.Points), ra.NumClusters, ra.Leakage)
	case "arbitrary":
		split, err := partition.ArbitraryRandom(q.Points, 0.5, p.seed)
		if err != nil {
			return err
		}
		err = transport.RunPair(ma, mb,
			func(transport.Conn) error {
				r, err := core.ArbitraryAlice(ma, cfg, split.Alice, split.Owners)
				ra = r
				return err
			},
			func(transport.Conn) error {
				r, err := core.ArbitraryBob(mb, cfg, split.Bob, split.Owners)
				rb = r
				return err
			},
		)
		if err != nil {
			return err
		}
		fmt.Printf("both parties: %d records, %d clusters, leakage %v\n", len(q.Points), ra.NumClusters, ra.Leakage)
	default:
		return fmt.Errorf("unknown mode %q", p.mode)
	}

	fmt.Printf("traffic: %d bytes in %d messages\n",
		ma.Stats().BytesSent+mb.Stats().BytesSent, ma.Stats().MessagesSent+mb.Stats().MessagesSent)
	fmt.Print(transport.FormatTagStats(transport.Merge(ma, mb)))
	return nil
}

func cmdParty(role string, args []string) error {
	fs := flag.NewFlagSet(role, flag.ExitOnError)
	p := addProtocolFlags(fs)
	listen := fs.String("listen", "", "address to listen on (alice)")
	connect := fs.String("connect", "", "address to dial (bob)")
	dataPath := fs.String("data", "", "CSV file with this party's points (one point per line)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := p.config()
	if err != nil {
		return err
	}
	points, err := readCSV(*dataPath)
	if err != nil {
		return err
	}

	var conn transport.Conn
	if role == "alice" {
		addr := *listen
		if addr == "" {
			addr = ":9000"
		}
		fmt.Printf("alice: listening on %s\n", addr)
		c, _, err := transport.Listen(addr)
		if err != nil {
			return err
		}
		conn = c
	} else {
		if *connect == "" {
			return fmt.Errorf("bob requires -connect host:port")
		}
		c, err := transport.Dial(*connect)
		if err != nil {
			return err
		}
		conn = c
	}
	defer conn.Close()
	meter := transport.NewMeter(conn)

	var res *core.Result
	switch p.mode {
	case "horizontal":
		if role == "alice" {
			res, err = core.HorizontalAlice(meter, cfg, points)
		} else {
			res, err = core.HorizontalBob(meter, cfg, points)
		}
	case "enhanced":
		if role == "alice" {
			res, err = core.EnhancedHorizontalAlice(meter, cfg, points)
		} else {
			res, err = core.EnhancedHorizontalBob(meter, cfg, points)
		}
	case "vertical":
		if role == "alice" {
			res, err = core.VerticalAlice(meter, cfg, points)
		} else {
			res, err = core.VerticalBob(meter, cfg, points)
		}
	default:
		return fmt.Errorf("mode %q not supported over TCP (use demo)", p.mode)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d labels, %d clusters, leakage %v\n", role, len(res.Labels), res.NumClusters, res.Leakage)
	fmt.Printf("traffic: sent %d bytes, received %d bytes\n", meter.Stats().BytesSent, meter.Stats().BytesRecv)
	for i, l := range res.Labels {
		fmt.Printf("%d,%d\n", i, l)
	}
	return nil
}

// sessionByMode builds the long-lived session for serve/client.
func sessionByMode(mode string, conn transport.Conn, cfg core.Config, role core.Role, points [][]float64) (*core.Session, error) {
	switch mode {
	case "horizontal":
		return core.NewHorizontalSession(conn, cfg, role, points)
	case "enhanced":
		return core.NewEnhancedHorizontalSession(conn, cfg, role, points)
	case "vertical":
		return core.NewVerticalSession(conn, cfg, role, points)
	}
	return nil, fmt.Errorf("mode %q not supported for sessions (use demo for arbitrary)", mode)
}

// cmdClient drives a long-lived session as the initiating party
// (RoleAlice): -runs clustering requests over one key exchange + index.
func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	p := addProtocolFlags(fs)
	connect := fs.String("connect", "", "address of the serving party")
	dataPath := fs.String("data", "", "CSV file with this party's points (one point per line)")
	runs := fs.Int("runs", 1, "clustering runs to request over the session")
	sessionKey := fs.String("session-key", "client", "session key greeted to the serving tier; the consistent-hash routing input behind a dispatcher")
	appends := fs.Int("appends", 0, "streaming appends after the initial runs, each followed by a re-clustering run (horizontal modes)")
	appendBatch := fs.Int("append-batch", 0, "points per appended batch, taken from the tail of -data")
	window := fs.Bool("window", false, "slide a fixed-width window: every appended batch also expires the oldest live generation")
	retract := fs.Int("retract", 0, "after the runs and appends, retract this many of the oldest live points and re-cluster")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("client requires -connect host:port")
	}
	if *retract < 0 {
		return fmt.Errorf("client requires -retract ≥ 0")
	}
	if *runs < 1 {
		return fmt.Errorf("client requires -runs ≥ 1")
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
	points = initial
	conn, err := transport.Dial(*connect)
	if err != nil {
		return err
	}
	defer conn.Close()
	shard, err := dispatch.Hello(conn, *sessionKey)
	if err != nil {
		return fmt.Errorf("admission: %w", err)
	}
	meter := transport.NewMeter(conn)
	sess, err := sessionByMode(p.mode, meter, cfg, core.RoleAlice, points)
	if err != nil {
		return err
	}
	fmt.Printf("client: session established on shard %s, setup leakage %v\n", shard, sess.SetupLeakage())
	var last *core.Result
	run := func() error {
		res, err := sess.Run()
		if err != nil {
			return err
		}
		last = res
		fmt.Printf("client: run %d (%d appends): %d labels, %d clusters, %d secure / %d cached cmps, run leakage %v\n",
			sess.Runs(), sess.Appends(), len(res.Labels), res.NumClusters,
			res.SecureComparisons, res.CachedComparisons, res.Leakage)
		return nil
	}
	for i := 0; i < *runs; i++ {
		if err := run(); err != nil {
			return err
		}
	}
	for i, batch := range batches {
		if *window {
			if err := sess.WindowAppend(batch); err != nil {
				return fmt.Errorf("window append %d: %w", i+1, err)
			}
			fmt.Printf("client: slid window %d (%d points in, oldest generation expired; %d expiries), total setup leakage now %v\n",
				i+1, len(batch), sess.Expires(), sess.SetupLeakage())
		} else {
			if err := sess.Append(batch); err != nil {
				return fmt.Errorf("append %d: %w", i+1, err)
			}
			fmt.Printf("client: appended batch %d (%d points), total setup leakage now %v\n", i+1, len(batch), sess.SetupLeakage())
		}
		if err := run(); err != nil {
			return err
		}
	}
	if *retract > 0 {
		ids := make([]int, *retract)
		for i := range ids {
			ids[i] = i
		}
		if err := sess.Retract(ids); err != nil {
			return fmt.Errorf("retract: %w", err)
		}
		fmt.Printf("client: retracted %d points (%d retractions), total setup leakage now %v\n",
			*retract, sess.Retracts(), sess.SetupLeakage())
		if err := run(); err != nil {
			return err
		}
	}
	if err := sess.Close(); err != nil {
		return err
	}
	fmt.Printf("client: closed after %d runs, %d appends; traffic sent %d bytes, received %d bytes\n",
		sess.Runs(), sess.Appends(), meter.Stats().BytesSent, meter.Stats().BytesRecv)
	for i, l := range last.Labels {
		fmt.Printf("%d,%d\n", i, l)
	}
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "blobs", "dataset: blobs|moons|rings|bridged")
	n := fs.Int("n", 200, "number of points")
	seed := fs.Int64("seed", 1, "generator seed")
	grid := fs.Int("grid", 64, "quantization grid (0 = raw floats)")
	out := fs.String("out", "", "output CSV path (default stdout)")
	labels := fs.Bool("labels", false, "append the ground-truth label column")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := makeDataset(*kind, *n, *seed)
	if err != nil {
		return err
	}
	if *grid > 1 {
		d, _ = dataset.Quantize(d, *grid)
	}
	if !*labels {
		d.Labels = nil
	}
	if *out != "" {
		return dataset.WriteCSVFile(*out, d)
	}
	return dataset.WriteCSV(os.Stdout, d)
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	id := fs.String("id", "all", "experiment id (e1..e12) or all")
	quick := fs.Bool("quick", false, "smaller sweeps")
	seed := fs.Int64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return experiments.Run(*id, os.Stdout, experiments.Options{Quick: *quick, Seed: *seed})
}

func makeDataset(kind string, n int, seed int64) (dataset.Dataset, error) {
	switch kind {
	case "blobs":
		return dataset.WithNoise(dataset.Blobs(n, 3, 0.35, seed), n/10, seed+1), nil
	case "moons":
		return dataset.Moons(n, 0.05, seed), nil
	case "rings":
		return dataset.Rings(n, 0.04, seed), nil
	case "bridged":
		return dataset.Bridged(n, seed), nil
	}
	return dataset.Dataset{}, fmt.Errorf("unknown dataset kind %q", kind)
}

// readCSV loads one point per line, comma-separated float coordinates.
func readCSV(path string) ([][]float64, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -data file")
	}
	d, err := dataset.ReadCSVFile(path, false)
	if err != nil {
		return nil, err
	}
	return d.Points, nil
}
