package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	refChunks = 2
	os.Exit(m.Run())
}

// runSmoke runs the command at smoke size and decodes its last line.
func runSmoke(t *testing.T, args ...string) (code int, last map[string]any, out string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-seconds", "0", "-out", t.TempDir()}, args...)
	code = run(args, &stdout, &stderr)
	out = stdout.String() + stderr.String()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return code, last, out
}

// Every workload, untraced and traced, runs at smoke size, passes its
// oracle and reports exactly the declared metrics.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			code, last, out := runSmoke(t, "-workload", w.name, "-trace", []string{"0", "1"}[trace])
			if code != 0 || last["correct"] != true || last["failed"] != float64(0) {
				t.Fatalf("%s trace %d: exit %d\n%s", w.name, trace, code, out)
			}
			got := last["metrics"].(map[string]any)
			if len(got) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(got), len(defs))
			}
			for _, def := range defs {
				m, ok := got[def.Name].(map[string]any)
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.name, trace, def.Name)
					continue
				}
				if m["unit"] != def.Unit {
					t.Errorf("%s: %s has unit %v, want %s", w.name, def.Name, m["unit"], def.Unit)
				}
				if trace == 0 && m["value"].(float64) <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, def.Name, m["value"])
				}
			}
		}
	}
}

// The seed changes every generated input, and nothing else does.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		render := func(seed int64) string {
			in, err := w.build(seed, sizeSmoke)
			if err != nil {
				t.Fatal(err)
			}
			return in.inputs()
		}
		if a, b := render(7), render(7); a != b {
			t.Errorf("%s: seed 7 generated two different inputs", w.name)
		}
		if render(7) == render(8) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// The seed mirrors and shifts the template by whole Eps-cells and keeps
// the points' order, so the exact counters must not depend on it.
func TestCountersIgnoreSeed(t *testing.T) {
	for _, w := range workloads {
		var first counters
		for _, seed := range []int64{1, 2, 3} {
			c, err := freshCounters(w, options{seed: seed, smoke: true})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if first == nil {
				first = c
			} else if !c.equal(first) {
				t.Errorf("%s: counters differ between seeds:%s vs%s", w.name, first, c)
			}
		}
	}
}

func TestMedianPercentile(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); !near(got, 3) {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median even = %v", got)
	}
	if got := percentile(xs, 0); !near(got, 1) {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(xs, 1); !near(got, 5) {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(xs, 0.95); !near(got, 4.8) {
		t.Errorf("p95 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := relDiff(90, 110); !near(got, 0.2) {
		t.Errorf("relDiff = %v", got)
	}
}

// An interval reads as it would have at the machine's undisturbed speed:
// what the host took is the processor time times the slow-down's share,
// waiting is left alone, and a round's throughput is counted in that time.
func TestSteady(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	a := &samples{pacer: &pacer{quiet: 1e-3}, round: 3}
	a.brackets = []bracket{
		{wall: 1, cpu: 1, pace: 1e-3, ops: 1, round: 0},         // undisturbed
		{wall: 1.5, cpu: 1.5, pace: 1.5e-3, ops: 1, round: 1},   // all computing, 1.5× slow
		{wall: 1.25, cpu: 0.75, pace: 1.5e-3, ops: 2, round: 2}, // 0.5 s of it waiting
		{wall: 3, cpu: 3, pace: 3e-3, round: 2},                 // a rebuild: no operation
		{wall: 1, cpu: 2, pace: 2e-3, round: 2},                 // processor time is capped at the wall
		{wall: 1, cpu: 1, pace: 0.9e-3, round: 2},               // faster than the fastest chunk: as measured
	}
	got := a.steady([]obs{{1, 0}, {1.5, 1}, {0.6, 1}, {1.25, 2}, {3, 3}, {1, 4}, {1, 5}})
	for i, want := range []float64{1, 1, 0.4, 1, 1, 0.5, 1} {
		if !near(got[i], want) {
			t.Errorf("steady[%d] = %v, want %v", i, got[i], want)
		}
	}
	rounds := a.throughput()
	if len(rounds) != 3 || !near(rounds[0], 1) || !near(rounds[1], 1) || !near(rounds[2], 2) {
		t.Errorf("throughput = %v, want [1 1 2]", rounds)
	}
	// A live kind's time is the mean over positions of the median over scripts.
	a.steps = map[string][][]obs{"append": {{{1, 0}, {3, 1}, {9, 0}}, {{5, 0}}}}
	if got := a.stepTime("append"); !near(got, (2+5)/2.0) {
		t.Errorf("stepTime = %v, want 3.5", got)
	}
}

// The reference block reports the mean chunk and remembers the fastest.
func TestPacerBlock(t *testing.T) {
	p := newPacer()
	mean := p.block()
	if mean <= 0 || p.quiet <= 0 || p.quiet > mean {
		t.Errorf("block mean %v, quiet %v", mean, p.quiet)
	}
	if again := p.block(); again != mean {
		t.Errorf("a block taken right after another should stand in for it: %v then %v", mean, again)
	}
}

const ms = int64(1e6)

// A party that sends at 10–11 ms, receives the reply from 11 to 40 ms
// and sends again at 45–46 ms computed for 10 + 5 ms inside [0, 50] and
// for 4 ms after its last call.
func TestActorUsageWholeParty(t *testing.T) {
	spans := []span{
		{Party: "alice", Tag: "hdp.mp", Kind: "send", Start: 10 * ms, End: 11 * ms, Bytes: 100},
		{Party: "alice", Tag: "hdp.mp", Kind: "recv", Start: 11 * ms, End: 40 * ms, Bytes: 300},
		{Party: "alice", Tag: "hdp.cmp", Kind: "send", Start: 45 * ms, End: 46 * ms, Bytes: 50},
	}
	perTag, flips := actorUsage(spans, 0, 50*ms, false)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	mp, cmp := perTag["hdp.mp"], perTag["hdp.cmp"]
	if !near(mp.Busy, 0.010) || !near(mp.Wait, 0.029) || !near(mp.Send, 0.001) || mp.Frames != 1 || mp.Bytes != 100 {
		t.Errorf("hdp.mp = %+v", mp)
	}
	// 5 ms before the send, 4 ms after it to the window's end.
	if !near(cmp.Busy, 0.009) || cmp.Wait != 0 || cmp.Frames != 1 || cmp.Bytes != 50 {
		t.Errorf("hdp.cmp = %+v", cmp)
	}
	if flips != 2 {
		t.Errorf("flips = %d, want 2", flips)
	}
	ws, err := sumWindows(spans, []window{{from: 0, to: 50 * ms}}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !near(ws.byLayer["mpc"].Busy, 0.010) || !near(ws.byLayer["compare"].Busy, 0.009) ||
		!near(ws.busyInit, 0.019) || ws.busyResp != 0 || ws.flips != 2 || !near(ws.wall, 0.050) {
		t.Errorf("windows = %+v", ws)
	}
}

// On a worker channel the reader's Recv began long before the request
// went out: the wait runs from the request, the idle ends do not count,
// and only the gap between reply and next request is busy.
func TestActorUsageWorkerChannel(t *testing.T) {
	spans := []span{
		{Party: "alice", Chan: 2, Tag: "untagged", Kind: "send", Start: 10 * ms, End: 11 * ms, Bytes: 10},
		{Party: "alice", Chan: 2, Tag: "untagged", Kind: "recv", Start: 1 * ms, End: 31 * ms, Bytes: 10},
		{Party: "alice", Chan: 2, Tag: "untagged", Kind: "send", Start: 34 * ms, End: 35 * ms, Bytes: 10},
	}
	perTag, flips := actorUsage(spans, 0, 50*ms, true)
	u := perTag["untagged"]
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if !near(u.Busy, 0.003) || !near(u.Wait, 0.020) || u.Frames != 2 || flips != 2 {
		t.Errorf("usage = %+v flips %d", u, flips)
	}
	if got := byActor(spans, true); len(got["alice/2"]) != 3 {
		t.Errorf("byActor = %v", got)
	}
}

func TestInFlight(t *testing.T) {
	spans := []span{
		{Kind: "send", Start: 0},
		{Kind: "send", Start: 5 * ms},  // overlaps the first
		{Kind: "recv", Start: 6 * ms},  // receives never occupy the wire
		{Kind: "send", Start: 30 * ms}, // cut off by the window's end
	}
	got := inFlight(spans, 0, 35*ms, 10*1e6)
	if math.Abs(got-0.020) > 1e-9 {
		t.Errorf("inFlight = %v, want 0.020", got)
	}
}

// Every tag the protocols set has a layer; a tag nobody has heard of is
// an error, not a silent hole in the breakdown.
func TestTagLayer(t *testing.T) {
	want := map[string]string{
		"handshake": "core", "session.op": "core", "hdp.op": "core", "enh.op": "core", "adp.owners": "core",
		"hdp.mp": "mpc", "adp.mp": "mpc", "enh.share": "mpc",
		"hdp.cmp": "compare", "vdp.cmp": "compare", "adp.cmp": "compare", "enh.select": "compare", "enh.final": "compare",
		"hdp.idx": "spatial", "vdp.idx": "spatial", "adp.idx": "spatial",
		"untagged": "untagged",
	}
	for tag, layer := range want {
		if got, err := tagLayer(tag); err != nil || got != layer {
			t.Errorf("tagLayer(%q) = %q, %v; want %q", tag, got, err, layer)
		}
	}
	for _, tag := range []string{"hdp.prune", "ring", "", ".mp"} {
		if got, err := tagLayer(tag); err == nil {
			t.Errorf("tagLayer(%q) = %q, want an error", tag, got)
		}
	}
	renamed := []span{{Party: "alice", Tag: "hdp.new", Kind: "send", Start: ms, End: 2 * ms}}
	if _, err := sumWindows(renamed, []window{{from: 0, to: 5 * ms}}, false, 0); err == nil {
		t.Error("sumWindows accepted a span with an unknown tag")
	}
}

// BENCHMARK.json names the metrics and workloads this program reports.
func TestManifestMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory")
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEndDefs)
	same("per_layer", m.PerLayer, perLayerDefs)
}
