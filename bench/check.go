package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
)

// committed holds the exact counters of one timed operation of every
// workload, as recorded when the sizes were last changed.
//
//go:embed counters.json
var committed []byte

// freshCounters runs the least number of operations of w and returns one
// operation's exact counters; finish has checked that all agree.
func freshCounters(w workload, o options) (counters, error) {
	in, err := w.build(o.seed, o.size())
	if err != nil {
		return nil, err
	}
	var acc samples
	if err := in.measure(0, minOps, nil, &acc); err != nil {
		return nil, err
	}
	r := &result{notes: acc.notes}
	finish(r, &acc)
	if !r.correct {
		return nil, fmt.Errorf("operations failed or disagreed: %v", r.notes)
	}
	return r.counters, nil
}

// checkCounters diffs the exact counters of a fresh run against
// counters.json. The last line printed is the fresh set as JSON, ready to
// replace the file when a change is meant to move them.
func checkCounters(o options, ws []workload, stdout, stderr io.Writer) int {
	want := map[string]counters{}
	if err := json.Unmarshal(committed, &want); err != nil {
		fmt.Fprintf(stderr, "bench: counters.json: %v\n", err)
		return 1
	}
	got := map[string]counters{}
	code := 0
	for _, w := range ws {
		c, err := freshCounters(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		got[w.name] = c
		names := make([]string, 0, len(c))
		for name := range c {
			names = append(names, name)
		}
		for name := range want[w.name] {
			if _, ok := c[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			g, gok := c[name]
			x, xok := want[w.name][name]
			verdict := "ok"
			if !gok || !xok || g != x {
				verdict, code = "DIFFERS", 1
			}
			fmt.Fprintf(stdout, "%-6s %-28s committed %8d  fresh %8d  %s\n", w.name, name, x, g, verdict)
		}
	}
	b, err := json.Marshal(got)
	if err != nil {
		panic(err) // maps of strings to integers always marshal
	}
	fmt.Fprintln(stdout, string(b))
	return code
}

// agree runs every selected workload twice and compares each end-to-end
// metric of the two sets against the metric's bound, and the exact
// counters against each other.
func agree(o options, ws []workload, stdout, stderr io.Writer) int {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(stdout, "nproc %d  GOMAXPROCS %d  %s  commit %s  clients %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, clients)
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range ws {
			r, err := runWorkload(w, o, io.Discard)
			if err != nil {
				fmt.Fprintf(stderr, "bench: set %d: %s: %v\n", i+1, w.name, err)
				return 1
			}
			if !r.correct {
				r.print(stderr)
				return 1
			}
			sets[i][w.name] = r
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-6s %-12s %14s %14s %9s %7s\n", "", "metric", "set 1", "set 2", "differ", "bound")
	for _, w := range ws {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, def := range endToEndDefs {
			d := relDiff(a.metrics[def.Name].Value, b.metrics[def.Name].Value)
			verdict := ""
			if d > def.Bound {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Fprintf(stdout, "%-6s %-12s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, def.Name,
				a.metrics[def.Name].Value, b.metrics[def.Name].Value, 100*d, 100*def.Bound, verdict)
		}
		if !a.counters.equal(b.counters) {
			code = 1
			fmt.Fprintf(stdout, "%-6s exact counters differ between the sets:%s vs%s\n", w.name, a.counters, b.counters)
		}
	}
	return code
}
