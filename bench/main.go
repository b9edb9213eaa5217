// Command bench is the repository's one benchmark: six named workloads
// over the whole stack, seven end-to-end metrics each, and a traced run
// that attributes the time to layers from spans recorded at the
// transport boundary. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	// One processor: the parties of a W=1 protocol take turns anyway, and
	// the reference computation that measures the machine's speed (see
	// pace.go) has to share the program's processor to share its fate.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	out      string
	check    bool
	agree    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: bulk, wan, live, serve, ympp, mesh or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs and protocol permutations are made from")
	fs.Float64Var(&o.seconds, "seconds", 16, "how long each workload's timed phase measures")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans at every party's connection and reports the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "256-bit keys and tiny inputs: checks the harness, measures nothing useful")
	fs.StringVar(&o.out, "out", defaultOut(), "directory the traced run writes trace-<workload>.jsonl to")
	fs.BoolVar(&o.check, "check", false, "diff the exact counters of a fresh run against counters.json")
	fs.BoolVar(&o.agree, "agree", false, "run two full sets and compare every end-to-end metric against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace takes 0 or 1\n")
		return 2
	}
	if clients > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: %d concurrent clients but only %d processors\n", clients, runtime.NumCPU())
		return 2
	}
	selected, err := selectWorkloads(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	switch {
	case o.check:
		return checkCounters(o, selected, stdout, stderr)
	case o.agree:
		return agree(o, selected, stdout, stderr)
	}
	code := 0
	for _, w := range selected {
		r, err := runWorkload(w, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.print(stdout)
		if !r.correct {
			code = 1
		}
		fmt.Fprintln(stdout, r.line())
	}
	return code
}

// defaultOut is bench/out under the repository root, where run.sh starts
// the program, and out/ when started inside the bench directory.
func defaultOut() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

func (o options) size() size {
	if o.smoke {
		return sizeSmoke
	}
	return sizeFull
}

// runWorkload generates the workload's inputs, runs the timed phase and
// returns the end-to-end result, or with -trace 1 the per-layer result.
func runWorkload(w workload, o options, stdout io.Writer) (*result, error) {
	sz := o.size()
	in, err := w.build(o.seed, sz)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d: %s\n", w.name, o.seed, o.trace, w.shape(sz))
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		return traced(w, in, o, d)
	}
	// One untimed operation lets the heap reach its working size.
	if !w.longRound {
		var warm samples
		if err := in.measure(0, 1, nil, &warm); err != nil {
			return nil, err
		}
	}
	var acc samples
	if err := in.measure(d, minOps, nil, &acc); err != nil {
		return nil, err
	}
	r := endToEnd(&acc)
	r.info = append(r.info, acc.machine())
	finish(r, &acc)
	return r, nil
}

// minOps is the least number of timed operations a run makes, however
// short -seconds is.
const minOps = 2

// finish applies the gates every run must pass: no failed operation and
// identical exact counters on every operation.
func finish(r *result, acc *samples) {
	r.attempted, r.failed = acc.attempted, acc.failed
	r.correct = acc.failed == 0 && acc.attempted > 0
	for i, c := range acc.counters {
		if i == 0 {
			r.counters = c
			continue
		}
		if !c.equal(acc.counters[0]) {
			r.correct = false
			r.notes = append(r.notes, fmt.Sprintf("exact counters differ between operations 0 and %d:%s vs%s", i, acc.counters[0], c))
			break
		}
	}
}
