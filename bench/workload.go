package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// A workload is one set of inputs and one way of driving the stack. Its
// instance holds the inputs generated from the seed and their plaintext
// oracle labels.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why string
	// shape describes the sizes in use, for the printed header.
	shape func(sz size) string
	// build generates the instance's inputs from the seed.
	build func(seed int64, sz size) (instance, error)
	// longRound marks a workload whose smallest repeatable unit — live's
	// whole script — takes seconds: it runs without a warm-up round (the
	// script starts with its own untimed fill) and the traced run splits
	// its time in two, not four.
	longRound bool
}

// size selects the full benchmark or the smoke test's small keys and
// inputs.
type size int

const (
	sizeFull size = iota
	sizeSmoke
)

// An instance runs its workload against generated inputs.
type instance interface {
	// measure runs timed operations for at least the given time and at
	// least minOps of them, with set-up cycles between them, adding what
	// it observes to acc. With a recorder, every party's connection
	// records spans.
	measure(d time.Duration, minOps int, rec *recorder, acc *samples) error
	// inputs returns a stable rendering of the generated inputs.
	inputs() string
	// exhaustivePairs is the number of point pairs an unpruned run of
	// one timed operation would compare securely.
	exhaustivePairs() int64
	// plain returns the pooled integer points for the plaintext DBSCAN
	// probe, with the protocol's threshold.
	plain() (points [][]int64, epsSq int64, minPts int, err error)
	// config returns the two-party configuration the probes size
	// themselves with.
	config() core.Config
}

// window is one timed operation's interval on the recorder's clock, and
// — on the first operation of a session — the interval from opening the
// connection to the established session.
type window struct {
	open, ready int64  // establishment; ready 0 when the session was already open
	from, to    int64  // the timed operation
	kind        string // live: step kind; serve: the client; otherwise ""
}

// samples is everything the timed phase of one run observed.
type samples struct {
	setup   []obs // s, establish only
	run     []obs // s, the workload's timed operation
	resume  []obs // s, clustering on an established session
	scratch []obs // s, fresh session + cold run over the same data
	// live only: steps[kind][position in the script], one observation a
	// script; kind "rebuild" holds the fresh-session rebuilds.
	steps map[string][][]obs

	bytes, frames int64  // on the wire during timed operations, both directions
	alloc         uint64 // heap bytes allocated during timed operations

	pacer    *pacer    // the reference computation; see pace.go
	brackets []bracket // every timed interval, in order
	round    int       // rounds of loop completed

	attempted, failed int
	counters          []counters // one per timed operation
	windows           []window   // traced runs only
	notes             []string   // why an operation failed
	tier              *tierStats // serve only
}

// counters are the exact, repeatable counts of one timed operation.
type counters map[string]int64

func (c counters) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, c[k])
	}
	return s
}

func (c counters) equal(o counters) bool {
	if len(c) != len(o) {
		return false
	}
	for k, v := range c {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

func (a *samples) fail(format string, args ...any) {
	a.failed++
	if len(a.notes) < 8 {
		a.notes = append(a.notes, fmt.Sprintf(format, args...))
	}
}

func (a *samples) step(kind string, pos int, s obs) {
	if a.steps == nil {
		a.steps = make(map[string][][]obs)
	}
	for len(a.steps[kind]) <= pos {
		a.steps[kind] = append(a.steps[kind], nil)
	}
	a.steps[kind][pos] = append(a.steps[kind][pos], s)
}

// loop calls op, one round of the timed phase each time, until minOps
// rounds were made and the phase is as close to d as whole rounds bring
// it: another starts only while more than half of the last one's time is
// left.
func (a *samples) loop(d time.Duration, minOps int, op func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minOps || time.Since(start)+last/2 < d; i++ {
		began := time.Now()
		if err := op(i); err != nil {
			return err
		}
		last = time.Since(began)
		a.round++
	}
	return nil
}

// setups runs k establish-and-close cycles in one bracket. cycle returns
// the initiating party's wall time from connection open to established
// session.
func (a *samples) setups(k int, cycle func() (float64, error)) error {
	var took []float64
	at, err := a.bracket(0, func() error {
		for i := 0; i < k; i++ {
			s, err := cycle()
			if err != nil {
				return fmt.Errorf("set-up cycle: %w", err)
			}
			took = append(took, s)
		}
		return nil
	})
	for _, s := range took {
		a.setup = append(a.setup, obs{s, at})
	}
	return err
}

// heapAllocated reads the process's cumulative heap allocation.
func heapAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func secs(d time.Duration) float64 { return d.Seconds() }

// ledgerTotal sums every disclosure class of a Ledger.
func ledgerTotal(l core.Ledger) int64 {
	return int64(l.NeighborCounts + l.MembershipBits + l.PairDecisions + l.OrderBits + l.CoreBits + l.DotProducts +
		l.IndexCells + l.IndexPaddedPoints + l.IndexCellCoords + l.IndexQueryCells + l.IndexDeltaCells +
		l.IndexTombstones + l.IndexRetractions)
}

// resultCounters collects the exact counts of one clustering run from
// both parties' Results and the initiating party's Meter delta.
func resultCounters(a, b *core.Result, wire transport.Stats) counters {
	return counters{
		"core.secure_cmps":  a.SecureComparisons,
		"core.cached_cmps":  a.CachedComparisons,
		"core.cts_up":       a.CiphertextsUplink + b.CiphertextsUplink,
		"core.cts_down":     a.CiphertextsDownlink + b.CiphertextsDownlink,
		"core.ledger_total": ledgerTotal(a.Leakage) + ledgerTotal(b.Leakage),
		"transport.frames":  wire.Messages(),
	}
}

// statsDelta is the traffic between two readings of one Meter.
func statsDelta(after, before transport.Stats) transport.Stats {
	return transport.Stats{
		MessagesSent: after.MessagesSent - before.MessagesSent,
		MessagesRecv: after.MessagesRecv - before.MessagesRecv,
		BytesSent:    after.BytesSent - before.BytesSent,
		BytesRecv:    after.BytesRecv - before.BytesRecv,
	}
}

// serveUntilClosed is the serving party's loop: answer Run requests
// (absorbing appends, expiries and retractions through the session's
// sources) until the initiating party closes, handing each Result to
// sink.
func serveUntilClosed(sess *core.Session, sink func(*core.Result)) error {
	for {
		res, err := sess.Run()
		if errors.Is(err, core.ErrSessionClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		sink(res)
	}
}

// link opens the in-process connection pair a two-party workload runs
// over: a plain pipe, or one with a one-way delivery delay.
func link(latency time.Duration) (transport.Conn, transport.Conn) {
	if latency > 0 {
		return transport.LatencyPipe(latency)
	}
	return transport.Pipe()
}
