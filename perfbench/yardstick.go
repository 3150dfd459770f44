package main

import (
	"math"
	"slices"
	"time"
)

// The yardstick is a fixed piece of arithmetic — a chain of math.Exp
// calls, the operation that dominates the simulator's steps — that the
// untraced run times while durserve is idle: before each set-up and
// between operations of the closed loop. A host shared with other
// machines runs at a speed that drifts by a tenth or more over minutes,
// and every timing of a run drifts with it. The end-to-end timings are
// reported at a reference speed, the one at which the yardstick takes
// yardstickRef: each timing is scaled by yardstickRef over the
// yardstick's trimmed mean time. The yardstick is timed by the wall clock,
// so it also counts the time the hypervisor kept its thread off the CPU,
// and a mean, unlike a median, counts that steal in proportion to how
// often it strikes; the trim drops the slowest yardsticks, rare long
// stalls that delay one operation of a window but would move the mean of
// the whole run.

// yardstickIters sets the yardstick's length: about a millisecond on a
// 2-core x86 VM.
const yardstickIters = 20_000

// yardstickRef is the reference speed's yardstick time.
const yardstickRef = time.Millisecond

// yardstickEvery spaces the yardsticks of a window: one after the first
// operation that completes this long after the last one.
const yardstickEvery = 100 * time.Millisecond

// yardsticksPerSetup are timed back to back before each set-up.
const yardsticksPerSetup = 10

// trimmedShare is the share of a run's yardsticks, the slowest, that the
// trimmed mean leaves out.
const trimmedShare = 0.02

// yardstickSink keeps the arithmetic from being optimized away.
var yardstickSink float64

// timeYardstick runs the yardstick once and returns how long it took.
func timeYardstick() time.Duration {
	start := time.Now()
	x := 1.0
	for i := 0; i < yardstickIters; i++ {
		x = math.Exp(-x*0.5) + float64(i&7)*1e-9
	}
	yardstickSink += x
	return time.Since(start)
}

// speedOf is the reference speed over the host's speed in a run that
// timed the yardstick these times: a timing times it reads at the
// reference speed.
func speedOf(times []time.Duration) float64 {
	if len(times) == 0 {
		return 1
	}
	s := slices.Clone(times)
	slices.Sort(s)
	kept := s[:len(s)-int(trimmedShare*float64(len(s)))]
	var sum time.Duration
	for _, t := range kept {
		sum += t
	}
	return float64(yardstickRef) * float64(len(kept)) / float64(sum)
}
