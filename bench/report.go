package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a user of the system sees, with the share
// of the parent's median by which each may worsen. Every workload reports
// every one of them.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"wire_mb", "MB", "lower", 0.02},
	{"wire_frames", "count", "lower", 0.02},
	{"alloc_mb", "MB", "lower", 0.10},
	{"rebuild_x", "x", "lower", 0.25},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, 0 when not a sample statistic
}

// result is what one run of one workload reports.
type result struct {
	attempted int
	failed    int
	correct   bool
	metrics   map[string]value
	order     []string // metric names in print order
	notes     []string // what went wrong
	info      []string // what else the reader should know
	counters  counters // exact counters of one timed operation
}

func (r *result) set(name, unit string, v float64, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = value{Value: v, Unit: unit, n: n}
}

// stepTime is the steady time of one live step of the given kind: the
// script's steps differ with their position — the window grows, then
// shrinks — so each position takes its median over the scripts, and the
// kind the mean of its positions.
func (a *samples) stepTime(kind string) float64 {
	t := 0.0
	for _, at := range a.steps[kind] {
		t += median(a.steady(at))
	}
	return t / float64(max(len(a.steps[kind]), 1))
}

// typical is the duration of the workload's timed operation at the
// machine's undisturbed speed: the median, or on live the mean over the
// three kinds of step.
func (a *samples) typical() float64 {
	if len(a.steps) == 0 {
		return median(a.steady(a.run))
	}
	t := 0.0
	for _, kind := range stepKinds {
		t += a.stepTime(kind)
	}
	return t / float64(len(stepKinds))
}

// endToEnd derives the end-to-end metrics from the timed phase. Every
// time is a median over the run, corrected for the machine's speed
// around the interval it was observed in.
func endToEnd(a *samples) *result {
	r := &result{metrics: make(map[string]value), notes: a.notes}
	ops := float64(len(a.run))
	r.set("setup_s", "s", median(a.steady(a.setup)), len(a.setup))
	r.set("run_s", "s", a.typical(), len(a.run))
	if ops == 0 {
		return r
	}
	rounds := a.throughput()
	r.set("ops_per_s", "1/s", median(rounds), len(rounds))
	r.set("wire_mb", "MB", float64(a.bytes)/ops/1e6, 0)
	r.set("wire_frames", "count", float64(a.frames)/ops, 0)
	r.set("alloc_mb", "MB", float64(a.alloc)/ops/1e6, 0)
	resume, scratch := a.typical(), a.stepTime("rebuild")
	if len(a.steps) == 0 {
		resume, scratch = median(a.steady(a.resume)), median(a.steady(a.scratch))
	}
	r.set("rebuild_x", "x", resume/scratch, len(a.scratch))
	return r
}

// print writes the metrics by name with their units, then the failure
// accounting.
func (r *result) print(w io.Writer) {
	for _, name := range r.order {
		v := r.metrics[name]
		if v.n > 0 {
			fmt.Fprintf(w, "  %-32s %14.6g %-6s (n=%d)\n", name, v.Value, v.Unit, v.n)
		} else {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.6g        (%d of %d operations)\n", "failed_frac", frac, r.failed, r.attempted)
	if len(r.counters) > 0 {
		fmt.Fprintf(w, "  exact counters per operation:%s\n", r.counters)
	}
	for _, n := range r.info {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}

// line is the result as the one JSON object the driver reads.
func (r *result) line() string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
