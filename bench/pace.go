package main

import (
	"fmt"
	"math/big"
	"syscall"
	"time"
)

// The machine this benchmark is judged on is two virtual processors of a
// shared host. For minutes at a stretch the host gives them two thirds or
// a third of their speed, the guest is told of no steal time, and a fixed
// computation then takes 1.5× or 3× its usual wall time — more than any
// bound a time metric may carry. No statistic over one run's operations
// can undo a state that outlasts the run, so the timed phase measures the
// machine beside the program: every timed interval lies between two
// reference blocks, a fixed big-integer computation of the protocols' own
// kinds, and is reported as the wall time it would have taken at the
// machine's undisturbed speed (see samples.steady).

// refChunks is the number of chunks in one reference block: 14 × ~2.8 ms.
// The tests, which time nothing, run shorter blocks.
var refChunks = 14

// pacer runs the reference computation. One chunk is the protocols' two
// kinds of arithmetic: a 2048-bit modular exponentiation, Paillier's size
// at 1024-bit keys, and a primality test of a 521-bit prime on a fresh
// copy, key generation's kind. A busy neighbour does not slow the two
// alike — 1.6× and 1.8× in one recording, allocation-heavy code 1.9× — so
// the mixture stands between the timed operations and their set-up.
type pacer struct {
	base, exp, mod, out, prime *big.Int
	quiet                      float64   // s, the fastest chunk seen: the undisturbed speed
	last                       float64   // s per chunk, mean over the latest block
	lastEnd                    time.Time // when that block ended
}

func newPacer() *pacer {
	one := big.NewInt(1)
	return &pacer{
		mod:   new(big.Int).Sub(new(big.Int).Lsh(one, 2048), big.NewInt(159)),
		base:  new(big.Int).Lsh(big.NewInt(3), 2000),
		exp:   new(big.Int).Lsh(big.NewInt(5), 1020),
		out:   new(big.Int),
		prime: new(big.Int).Sub(new(big.Int).Lsh(one, 521), one), // the Mersenne prime 2^521 − 1
	}
}

// block times refChunks chunks and returns their mean. A block that ended
// within the last few milliseconds stands in for a new one: consecutive
// intervals share the block between them.
func (p *pacer) block() float64 {
	if !p.lastEnd.IsZero() && time.Since(p.lastEnd) < 5*time.Millisecond {
		return p.last
	}
	start := time.Now()
	at := start
	for i := 0; i < refChunks; i++ {
		p.out.Exp(p.base, p.exp, p.mod)
		new(big.Int).Set(p.prime).ProbablyPrime(10)
		now := time.Now()
		if c := secs(now.Sub(at)); p.quiet == 0 || c < p.quiet {
			p.quiet = c
		}
		at = now
	}
	p.last, p.lastEnd = secs(at.Sub(start))/float64(refChunks), at
	return p.last
}

// bracket is one interval of the timed phase with the machine's speed
// around it.
type bracket struct {
	wall  float64 // s
	cpu   float64 // s of processor time the process used inside
	pace  float64 // s per reference chunk, mean of the blocks before and after
	ops   int     // timed operations completed inside; 0 for set-up cycles and rebuilds
	round int     // the round of the loop it belongs to
}

// obs is one observed duration and the bracket it was observed in.
type obs struct {
	v  float64
	in int
}

// cpuTime is the processor time the process has used, user and system.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// bracket runs f between two reference blocks and files the interval,
// returning its index for the observations made inside.
func (a *samples) bracket(ops int, f func() error) (int, error) {
	if a.pacer == nil {
		a.pacer = newPacer()
	}
	before := a.pacer.block()
	cpu, start := cpuTime(), time.Now()
	err := f()
	b := bracket{wall: secs(time.Since(start)), cpu: cpuTime() - cpu, ops: ops, round: a.round}
	b.pace = (before + a.pacer.block()) / 2
	a.brackets = append(a.brackets, b)
	return len(a.brackets) - 1, err
}

// steadyFactor is the share of bracket b's wall time that remains at the
// machine's undisturbed speed. The host's interference stretches
// processor time and leaves waiting — wan's frames in flight — alone; the
// guest cannot tell stolen time from its own, so the processor time it
// reports is stretched too, by pace ÷ quiet. What the host took is
// therefore cpu × (1 − quiet ÷ pace).
func (a *samples) steadyFactor(b bracket) float64 {
	if b.wall <= 0 || b.pace <= a.pacer.quiet {
		return 1
	}
	return 1 - min(b.cpu, b.wall)/b.wall*(1-a.pacer.quiet/b.pace)
}

// steady returns the observations as they would have read at the
// machine's undisturbed speed.
func (a *samples) steady(xs []obs) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v * a.steadyFactor(a.brackets[x.in])
	}
	return out
}

// throughput is the timed operations completed per second of steady time
// in each round of the loop that completed any.
func (a *samples) throughput() []float64 {
	ops, wall := make([]float64, a.round+1), make([]float64, a.round+1)
	for _, b := range a.brackets {
		ops[b.round] += float64(b.ops)
		wall[b.round] += float64(min(b.ops, 1)) * b.wall * a.steadyFactor(b)
	}
	var out []float64
	for i, n := range ops {
		if n > 0 {
			out = append(out, n/wall[i])
		}
	}
	return out
}

// machine describes the speed the run found the machine at, and what the
// timed operation read before the correction for it, for the reader of
// the printed report.
func (a *samples) machine() string {
	var pace []float64
	var cpu, wall float64
	for _, b := range a.brackets {
		pace = append(pace, b.pace)
		cpu, wall = cpu+b.cpu, wall+b.wall
	}
	if len(pace) == 0 || wall == 0 {
		return "machine: no timed interval"
	}
	raw := make([]float64, len(a.run))
	for i, x := range a.run {
		raw[i] = x.v
	}
	return fmt.Sprintf("machine: reference chunk %.3f ms undisturbed, %.3f ms at the median of %d intervals (%.2f×, worst %.2f×); the process held a processor for %.0f%% of them; the timed operation as the clock read it: median %.6g s",
		1e3*a.pacer.quiet, 1e3*median(pace), len(pace), median(pace)/a.pacer.quiet, percentile(pace, 1)/a.pacer.quiet, 100*cpu/wall, median(raw))
}
