package stochastic

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"durability/internal/rng"
)

// oracleQueueStep is TandemQueue.Step as the log clock wrote it: one
// -log(U)/rate per event. The product clock must reproduce its decisions,
// states and draws exactly.
func oracleQueueStep(q *TandemQueue, s State, t int, src *rng.Source) {
	qs := s.(*QueueState)
	remaining := 1.0
	for {
		rate := q.ArrivalRate
		if qs.Q1 > 0 {
			rate += q.ServiceRate1
		}
		if qs.Q2 > 0 {
			rate += q.ServiceRate2
		}
		dt := src.Exp(rate)
		if dt > remaining {
			break
		}
		remaining -= dt
		// Choose which event fired, proportionally to its rate.
		u := src.Float64() * rate
		qs.Q1, qs.Q2 = oracleFire(qs.Q1, qs.Q2, u, q.ArrivalRate, q.ArrivalRate+q.ServiceRate1)
	}
	if q.ImpulseProb > 0 && t >= q.ImpulseAfter && src.Bernoulli(q.ImpulseProb) {
		qs.Q2 += q.ImpulseSize
	}
}

// oracleFire is the event choice as a switch: an arrival below a, queue
// 1's service below a1 when queue 1 is busy, else queue 2's service.
func oracleFire(q1, q2 int, u, a, a1 float64) (int, int) {
	switch {
	case u < a:
		q1++
	case q1 > 0 && u < a1:
		q1--
		q2++
	default:
		q2--
	}
	return q1, q2
}

// TestFireMatchesSwitch checks the branch-free event choice and rate
// index against the switch on every edge: u on and next to the arrival
// rate and the arrival plus service-1 rate, at 0 and just below each
// total rate, with each queue empty or busy. The rate index must pick
// the total the log clock sums in its own order, bit for bit.
func TestFireMatchesSwitch(t *testing.T) {
	for _, q := range []*TandemQueue{
		NewTandemQueue(0.5, 2, 2),
		{ArrivalRate: 1, ServiceRate1: 3, ServiceRate2: 2},
		{ArrivalRate: 0.5, ServiceRate1: 1e-12, ServiceRate2: 1e-12},
		{ArrivalRate: 900, ServiceRate1: 900, ServiceRate2: 100},
	} {
		var c queueClock
		c.init(q)
		a, a1 := q.ArrivalRate, q.ArrivalRate+q.ServiceRate1
		var us []float64
		for _, x := range c.rate { // a and a1 first, then the other totals
			us = append(us, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
		}
		us = append(us, 0)
		for _, start := range []QueueState{{}, {Q1: 1}, {Q2: 1}, {Q1: 1, Q2: 1}, {Q1: 7, Q2: 20}} {
			rate := q.ArrivalRate
			if start.Q1 > 0 {
				rate += q.ServiceRate1
			}
			if start.Q2 > 0 {
				rate += q.ServiceRate2
			}
			if got := c.rate[rateIndex(start.Q1, start.Q2)]; got != rate {
				t.Errorf("%+v at %+v: rate index picks %v, the log clock sums %v", *q, start, got, rate)
			}
			for _, u := range us {
				g1, g2 := fire(start.Q1, start.Q2, u, a, a1)
				w1, w2 := oracleFire(start.Q1, start.Q2, u, a, a1)
				if g1 != w1 || g2 != w2 {
					t.Errorf("%+v at %+v, u=%v: fire gives (%d, %d), the switch (%d, %d)", *q, start, u, g1, g2, w1, w2)
				}
			}
		}
	}
}

// oracleConfigs are the queues the clock is checked on: the paper's
// queue, the volatile queue, near-frozen services, service rates whose
// exp(-rate) is tiny or underflows, and lanes that restart non-empty.
// steps is each config's share of lane-steps, horizon how often a lane
// restarts from start.
func oracleConfigs() []struct {
	name    string
	q       *TandemQueue
	start   QueueState
	horizon int
	steps   int
} {
	volatile := NewTandemQueue(0.5, 2, 2)
	volatile.ImpulseProb, volatile.ImpulseSize, volatile.ImpulseAfter = 0.015, 15, 400
	return []struct {
		name    string
		q       *TandemQueue
		start   QueueState
		horizon int
		steps   int
	}{
		{"paper", NewTandemQueue(0.5, 2, 2), QueueState{}, 500, 3_000_000},
		{"volatile", volatile, QueueState{}, 500, 2_000_000},
		{"critical-impulse", &TandemQueue{ArrivalRate: 0.5, ServiceRate1: 0.5, ServiceRate2: 0.5, ImpulseProb: 0.1, ImpulseSize: 3, ImpulseAfter: 2}, QueueState{}, 60, 2_000_000},
		{"frozen-service", &TandemQueue{ArrivalRate: 0.5, ServiceRate1: 1e-12, ServiceRate2: 1e-12}, QueueState{}, 300, 1_000_000},
		{"busy-start", NewTandemQueue(0.5, 2, 2), QueueState{Q1: 7, Q2: 20}, 200, 1_500_000},
		{"fast-service", &TandemQueue{ArrivalRate: 0.5, ServiceRate1: 100, ServiceRate2: 1e-12}, QueueState{Q1: 3}, 100, 400_000},
		{"underflow", &TandemQueue{ArrivalRate: 0.5, ServiceRate1: 100, ServiceRate2: 900}, QueueState{Q1: 2, Q2: 1}, 50, 100_000},
		{"underflow-arrivals", &TandemQueue{ArrivalRate: 900, ServiceRate1: 900, ServiceRate2: 100}, QueueState{}, 20, 8_000},
	}
}

// TestQueueClockMatchesGillespie steps lanes through the product clock
// and through the log clock side by side and requires the same queue
// state and the same source state after every step: 10^7 lane-steps,
// each lane restarting from its start state every horizon steps. Even
// rounds step all lanes through StepVec, odd rounds through Step.
func TestQueueClockMatchesGillespie(t *testing.T) {
	const lanes = 64
	total := 0
	for _, cfg := range oracleConfigs() {
		steps := cfg.steps
		if testing.Short() {
			steps /= 20
		}
		t.Run(cfg.name, func(t *testing.T) {
			vec := cfg.q.NewStateVec(lanes).(*queueVec)
			srcs := make([]rng.Source, lanes)
			srcPtr := make([]*rng.Source, lanes)
			oracle := make([]QueueState, lanes)
			oracleSrc := make([]rng.Source, lanes)
			active := make([]int, lanes)
			ts := make([]int, lanes)
			for i := range active {
				active[i] = i
				srcs[i].SeedStream(uint64(len(cfg.name)), uint64(i))
				srcPtr[i] = &srcs[i]
				oracleSrc[i] = srcs[i]
			}
			for round := 0; round*lanes < steps; round++ {
				tick := round%cfg.horizon + 1
				for i := range ts {
					if tick == 1 {
						vec.lane[i], oracle[i] = cfg.start, cfg.start
					}
					ts[i] = tick
				}
				if round%2 == 0 {
					cfg.q.StepVec(vec, active, ts, srcPtr)
				} else {
					for i := range active {
						cfg.q.Step(&vec.lane[i], tick, srcPtr[i])
					}
				}
				for i := range active {
					oracleQueueStep(cfg.q, &oracle[i], tick, &oracleSrc[i])
					if vec.lane[i] != oracle[i] || srcs[i] != oracleSrc[i] {
						t.Fatalf("round %d lane %d (t=%d): clock %+v, log clock %+v; sources equal: %v",
							round, i, tick, vec.lane[i], oracle[i], srcs[i] == oracleSrc[i])
					}
				}
			}
		})
		total += steps
	}
	if !testing.Short() && total < 10_000_000 {
		t.Fatalf("only %d lane-steps checked", total)
	}
}

// sourceYielding returns a Source whose first Float64 is k/2^53.
// xoshiro256**'s output depends on the second state word alone, so that
// word is the inverse scrambler of the wanted output; the other words
// are arbitrary.
func sourceYielding(t *testing.T, k uint64) *rng.Source {
	t.Helper()
	out := k << 11
	inv := func(a uint64) uint64 { // a^-1 mod 2^64 by Newton's iteration
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	s1 := bits.RotateLeft64(out*inv(9), -7) * inv(5)
	buf := make([]byte, 4*8+1+8)
	for w, v := range []uint64{0x9e3779b97f4a7c15, s1, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb} {
		for b := 0; b < 8; b++ {
			buf[8*w+b] = byte(v >> (8 * b))
		}
	}
	var src rng.Source
	if err := src.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if got := cloneSource(&src).Float64(); got != float64(k)/(1<<53) {
		t.Fatalf("crafted source yields %v, want %v", got, float64(k)/(1<<53))
	}
	return &src
}

func cloneSource(s *rng.Source) *rng.Source { c := *s; return &c }

// TestQueueClockGuardBand puts the first clock draw on the uniforms
// adjacent to the step's threshold exp(-rate), where the product and log
// clocks' rounding could disagree: the clock must refuse to decide
// there, and Step must still land on the log clock's state and source.
// Draws a band's width away must be decided by the clock alone.
func TestQueueClockGuardBand(t *testing.T) {
	for _, cfg := range []struct {
		q     *TandemQueue
		start QueueState
	}{
		// Thresholds stay above 1e-3, where the outputs next to T, multiples
		// of 2^-53, sit inside the band.
		{NewTandemQueue(0.5, 2, 2), QueueState{}},
		{NewTandemQueue(0.5, 2, 2), QueueState{Q1: 1, Q2: 1}},
		{&TandemQueue{ArrivalRate: 0.5, ServiceRate1: 0.5, ServiceRate2: 0.5}, QueueState{Q2: 4}},
		{&TandemQueue{ArrivalRate: 0.5, ServiceRate1: 1e-12, ServiceRate2: 1e-12}, QueueState{Q1: 1}},
		{&TandemQueue{ArrivalRate: 1, ServiceRate1: 3, ServiceRate2: 2}, QueueState{Q1: 1, Q2: 1}},
	} {
		var c queueClock
		c.init(cfg.q)
		T := math.Exp(-c.rate[rateIndex(cfg.start.Q1, cfg.start.Q2)])
		center := uint64(T * (1 << 53))
		for _, d := range []int64{-2, -1, 0, 1, 2} {
			k := uint64(int64(center) + d)
			name := fmt.Sprintf("%+v/%+v/%+d", *cfg.q, cfg.start, d)
			qs, src := cfg.start, sourceYielding(t, k)
			var probe queueClock
			probe.init(cfg.q)
			if _, _, ok := probe.run(qs, src.Gen()); ok {
				t.Errorf("%s: draw %v next to threshold %v was decided by the product clock", name, float64(k)/(1<<53), T)
			}
			got, want := cfg.start, cfg.start
			gotSrc, wantSrc := cloneSource(src), cloneSource(src)
			cfg.q.Step(&got, 1, gotSrc)
			oracleQueueStep(cfg.q, &want, 1, wantSrc)
			if got != want || *gotSrc != *wantSrc {
				t.Errorf("%s: Step %+v, log clock %+v", name, got, want)
			}
		}
		// Well outside the band, on both sides, the clock decides.
		for _, k := range []uint64{uint64(T * (1 - 1e-9) * (1 << 53)), uint64(T * (1 + 1e-9) * (1 << 53))} {
			qs := cfg.start
			var probe queueClock
			probe.init(cfg.q)
			before := qs
			_, _, decided := probe.run(qs, sourceYielding(t, k).Gen())
			if !decided && math.Abs(float64(k)/(1<<53)/T-1) > 1e-10 {
				t.Errorf("%+v from %+v: draw %v, a relative 1e-9 from the threshold, fell in the guard band", *cfg.q, before, float64(k)/(1<<53))
			}
		}
	}
}

// TestQueueClockZeroRate: with no arrivals and both queues empty the
// total rate is zero, on which the log clock's rng.Exp panics; the
// product clock must hand such a step to the log clock, not simulate a
// frozen queue.
func TestQueueClockZeroRate(t *testing.T) {
	q := &TandemQueue{ArrivalRate: 0, ServiceRate1: 1, ServiceRate2: 1}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a zero total rate stepped without the log clock's panic")
		}
	}()
	q.Step(&QueueState{}, 1, rng.New(1))
}

// BenchmarkQueueStepVec steps 64 lanes of the paper's queue through
// StepVec without the kernel around them, restarting every lane from
// empty every 500 steps (the query horizon) as BenchmarkQueueStep does.
// ns/step is per lane-step, the unit of BenchmarkGMLSSCold.
func BenchmarkQueueStepVec(b *testing.B) {
	const lanes, horizon = 64, 500
	q := NewTandemQueue(0.5, 2, 2)
	vec := q.NewStateVec(lanes).(*queueVec)
	srcs := make([]rng.Source, lanes)
	srcPtr := make([]*rng.Source, lanes)
	active := make([]int, lanes)
	ts := make([]int, lanes)
	for i := range active {
		active[i] = i
		srcs[i].SeedStream(1, uint64(i))
		srcPtr[i] = &srcs[i]
	}
	for i := 0; b.Loop(); i++ {
		tick := i%horizon + 1
		if tick == 1 {
			clear(vec.lane)
		}
		for l := range ts {
			ts[l] = tick
		}
		q.StepVec(vec, active, ts, srcPtr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/step")
}
