package stochastic

import (
	"fmt"
	"math"

	"durability/internal/rng"
)

// TandemQueue is the two-stage queueing network of §6 Figure 4: Poisson
// arrivals into queue 1, exponential service at queue 1 feeding queue 2,
// exponential service at queue 2. The observed process is the number of
// customers in queue 2, starting from an empty system.
//
// The continuous-time Markov chain is simulated exactly inside each unit
// time step with the Gillespie algorithm; thanks to the memorylessness of
// all three event types no residual clocks have to be carried across step
// boundaries, so the state is just the two queue lengths. The event clock
// multiplies its uniforms instead of summing their logs (the product
// clock, below), with a guard band that hands near-ties back to the log
// clock, so every state and every draw are the log clock's.
//
// The impulse fields reproduce the "Volatile Queue" process of §6.2: after
// time ImpulseAfter, each step adds ImpulseSize customers to queue 2 with
// probability ImpulseProb, which makes sample paths skip levels.
type TandemQueue struct {
	ArrivalRate  float64 // Poisson arrival rate into queue 1
	ServiceRate1 float64 // exponential service rate of queue 1
	ServiceRate2 float64 // exponential service rate of queue 2

	ImpulseProb  float64 // per-step probability of an impulse jump (0 disables)
	ImpulseSize  int     // customers added to queue 2 by an impulse
	ImpulseAfter int     // first time step at which impulses may fire
}

// NewTandemQueue returns the paper's queue model. The paper parameterises
// services by their Exp(mu) label with mu1 = mu2 = 2 and arrivals with
// Pois(lambda), lambda = 0.5; we interpret mu as the mean service time
// (rate 1/mu), which puts both stations at critical load rho = 1 — the
// regime in which the paper's reported hitting probabilities for queue-2
// backlogs are attainable.
func NewTandemQueue(lambda, mu1, mu2 float64) *TandemQueue {
	return &TandemQueue{
		ArrivalRate:  lambda,
		ServiceRate1: 1 / mu1,
		ServiceRate2: 1 / mu2,
	}
}

// QueueState holds the two queue lengths.
type QueueState struct {
	Q1, Q2 int
}

// Clone implements State.
func (s *QueueState) Clone() State {
	c := *s
	return &c
}

// Queue2Len observes the number of customers in queue 2, the process the
// paper's durability queries are about.
func Queue2Len(s State) float64 {
	qs, ok := s.(*QueueState)
	if !ok {
		panic(fmt.Sprintf("stochastic: Queue2Len applied to %T", s))
	}
	return float64(qs.Q2)
}

// Queue1Len observes the number of customers in queue 1.
func Queue1Len(s State) float64 {
	return float64(s.(*QueueState).Q1)
}

// Name implements Process.
func (q *TandemQueue) Name() string {
	if q.ImpulseProb > 0 {
		return "volatile-tandem-queue"
	}
	return "tandem-queue"
}

// Initial implements Process. The system starts empty (§6).
func (q *TandemQueue) Initial() State { return &QueueState{} }

// Step implements Process: exact CTMC simulation over one unit of time.
func (q *TandemQueue) Step(s State, t int, src *rng.Source) {
	var c queueClock
	c.init(q)
	q.step(s.(*QueueState), t, src, &c)
}

// NewStateVec implements BulkProcess.
func (q *TandemQueue) NewStateVec(lanes int) StateVec { return newQueueVec(lanes) }

// StepVec implements BulkProcess: Step per lane, each lane drawing its
// event clocks from its own source, with the clock's thresholds shared
// across the call's lanes and kept in the vec across calls.
func (q *TandemQueue) StepVec(v StateVec, lanes []int, t []int, src []*rng.Source) {
	qv := v.(*queueVec)
	c := q.clock(qv)
	for _, i := range lanes {
		q.step(&qv.lane[i], t[i], src[i], c)
	}
}

// clock returns v's event clock for q's rates. The clock's rem = 1
// thresholds depend on the three rates alone, so it is rebuilt only
// when their bits differ from the ones it was built from: a model
// mutated between calls never steps on stale thresholds, and a kept
// clock gives the thresholds a fresh one would, bit for bit.
func (q *TandemQueue) clock(v *queueVec) *queueClock {
	rates := [3]uint64{
		math.Float64bits(q.ArrivalRate),
		math.Float64bits(q.ServiceRate1),
		math.Float64bits(q.ServiceRate2),
	}
	if rates != v.rates {
		v.clock = queueClock{}
		v.clock.init(q)
		v.rates = rates
	}
	return &v.clock
}

// step is Step and StepVec's one lane step: the product clock, or the
// log clock from the step's start when the product clock cannot decide,
// then the impulse. The clock runs on copies of the queue lengths and
// the generator words, so those copies are the rollback snapshot, and
// the lane is written once.
func (q *TandemQueue) step(qs *QueueState, t int, src *rng.Source, c *queueClock) {
	if next, g, ok := c.run(*qs, src.Gen()); ok {
		*qs = next
		src.SetGen(g)
	} else {
		c.gillespie(qs, src)
	}
	if q.ImpulseProb > 0 && t >= q.ImpulseAfter && src.Bernoulli(q.ImpulseProb) {
		qs.Q2 += q.ImpulseSize
	}
}

// gillespie is the log clock over one unit of time: draw the next
// event's clock dt = -log(U)/rate, stop once it overshoots the time
// remaining, else fire the event chosen proportionally to its rate.
func (c *queueClock) gillespie(qs *QueueState, src *rng.Source) {
	remaining := 1.0
	for {
		rate := c.rate[rateIndex(qs.Q1, qs.Q2)]
		dt := src.Exp(rate)
		if dt > remaining {
			break
		}
		remaining -= dt
		qs.Q1, qs.Q2 = fire(qs.Q1, qs.Q2, src.Float64()*rate, c.rate[0], c.rate[1])
	}
}

// fire returns the queue lengths after the event selected by u, a
// uniform draw scaled by the total rate, with a the arrival rate and a1
// the arrival plus queue 1's service rate: an arrival when u < a, else
// queue 1's service when queue 1 is busy and u < a1, else queue 2's
// service. The comparisons become 0/1 flags and the lengths move by
// arithmetic on them, so the choice costs no branch a random draw could
// mispredict.
func fire(q1, q2 int, u, a, a1 float64) (int, int) {
	arrive := b2i(u < a)
	serve1 := b2i(u < a1) & b2i(q1 > 0) &^ arrive
	return q1 + arrive - serve1, q2 + 2*serve1 + arrive - 1
}

// b2i is 1 for true and 0 for false; the compiler emits it as a flag
// set, not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// The product-form clock. Inside a run of events at one total rate r,
// the event whose clock is U fires within the step exactly when the
// clocks so far sum to at most the time left at the run's start, rem:
//
//	Σ -log(U_j)/r <= rem  ⇔  Π U_j >= exp(-r·rem)
//
// so the clock multiplies uniforms into P and compares P against the
// run's threshold T = exp(-r·rem), with no log per event (Knuth's
// product method for Poisson counts, TAOCP vol. 2 §3.4.1). A run ends,
// and P is folded into rem by one log and the next T costs one exp, when
// an event changes the total rate, after clockRunEvents events, or when
// P nears underflow. The thresholds at rem = 1 are shared by every lane
// of a lane vector, across its StepVec calls.
//
// The log clock's rounding and the product clock's differ, so a decision
// is taken only when P·U clears T by more than a guard band that bounds
// both sides' rounding error (threshold). Inside the band the product
// clock gives up and step reruns the log clock (gillespie) from the
// step's start on a copy of the source, which makes every decision, and
// so every state and every source position, the log clock's by
// construction. With rates of order one the band is about 1e-13 wide,
// so the rerun is rare.

// clockRunEvents bounds the events in one run, so the band need only
// cover that many more roundings.
const clockRunEvents = 64

// clockFloor caps -log T: when r·rem exceeds it the run's threshold
// would underflow, so the run instead rebases whenever P falls below
// exp(-clockFloor). P·U stays a normal number either way.
const clockFloor = 600

// clockEps bounds the relative rounding error of one operation.
const clockEps = 1.0 / (1 << 52)

var clockFloorCut = math.Exp(-clockFloor)

// clockRun is one run's decision thresholds: P·U >= hi fires an event;
// P·U < lo ends the step, or rebases the run when capped; anything
// between is inside the guard band.
type clockRun struct {
	lo, hi float64
	capped bool
}

// queueClock holds a model's four total rates, indexed by rateIndex, and
// their thresholds at rem = 1, computed on first use. Step builds one per
// call; a lane vector keeps one across its StepVec calls.
type queueClock struct {
	rate  [4]float64
	start [4]clockRun
	have  uint8
}

func (c *queueClock) init(q *TandemQueue) {
	// Each total adds the rates in the log clock's order, arrivals then
	// service 1 then service 2, so every choice sees its rates bit for bit.
	c.rate = [4]float64{
		q.ArrivalRate,
		q.ArrivalRate + q.ServiceRate1,
		q.ArrivalRate + q.ServiceRate2,
		q.ArrivalRate + q.ServiceRate1 + q.ServiceRate2,
	}
}

// rateIndex selects the total rate at queue lengths q1, q2: bit 0 when
// queue 1 is busy, bit 1 when queue 2 is.
func rateIndex(q1, q2 int) int {
	return b2i(q1 > 0) | b2i(q2 > 0)<<1
}

// threshold returns the thresholds of a run at rate r with rem time
// left, known to within slack, after k events of the step. The band
// bounds, in log space, the product clock's own error (slack, the
// rounding of r·rem, exp and the run's products) plus the log clock's
// (per event, a rounded subtraction and a rounded log and division),
// both for up to clockRunEvents more events. A band too wide to trust
// (only after runs at rates far below one), or a rate that is not
// positive, returns the thresholds that leave every decision to the log
// clock.
func threshold(r, rem, slack float64, k int) clockRun {
	x := r * rem
	band := 2 * (r*slack + clockEps*(x+clockRunEvents+5+r*(float64(k+clockRunEvents)/2+3)))
	if !(band <= 1.0/1024) || !(r > 0) {
		return clockRun{lo: 0, hi: math.Inf(1)}
	}
	if x > clockFloor+1 {
		return clockRun{lo: clockFloorCut, hi: clockFloorCut, capped: true}
	}
	T := math.Exp(-x)
	return clockRun{lo: T * (1 - 2*band), hi: T * (1 + 2*band)}
}

// run advances the queue from s over one unit of time on the product
// clock, drawing from g, and returns the new state and generator words.
// It reports false, with no state, if a decision fell inside the guard
// band; the caller then reruns the step from s and g on the log clock.
// The inner loop fires one run's events and calls nothing, so the queue
// lengths and the generator words stay in registers; fold's log and exp
// are paid between runs.
func (c *queueClock) run(s QueueState, g rng.Gen) (QueueState, rng.Gen, bool) {
	q1, q2 := s.Q1, s.Q2
	a, a1 := c.rate[0], c.rate[1]
	idx := rateIndex(q1, q2)
	if c.have&(1<<idx) == 0 {
		c.start[idx] = threshold(c.rate[idx], 1, 0, 0)
		c.have |= 1 << idx
	}
	rate, th := c.rate[idx], c.start[idx]
	rem, slack := 1.0, 0.0
	p, n, k := 1.0, 0, 0 // product, its factors, events of earlier runs
	var u, v float64
	g, u = g.Float64Open()
	for {
		for !(p*u < th.hi) {
			p, n = p*u, n+1
			g, v = g.Float64()
			q1, q2 = fire(q1, q2, v*rate, a, a1)
			g, u = g.Float64Open()
			if rateIndex(q1, q2) != idx || n == clockRunEvents {
				break
			}
		}
		if next := rateIndex(q1, q2); next != idx || n == clockRunEvents {
			idx = next
		} else if p*u >= th.lo {
			return QueueState{}, g, false
		} else if !th.capped {
			return QueueState{Q1: q1, Q2: q2}, g, true
		}
		// A new total rate or the run's clockRunEvents-th event ends the
		// run, or, capped, P·U nears underflow and the run rebases at its
		// rate; either way u is tested against the next run's thresholds.
		k += n
		next := c.rate[idx]
		rem, slack, th = fold(rem, slack, p, n, rate, next, k)
		rate, p, n = next, 1, 0
	}
}

// fold closes a run at rate r whose n clock factors multiplied to p and
// opens the next, at rate next after k events of the step: the time left
// shrinks by the run's clocks, -log(p)/r, slack grows by the error of
// that log (p's own rounding plus one ulp) and of the division and the
// subtraction, and the next run's thresholds follow from both.
func fold(rem, slack, p float64, n int, r, next float64, k int) (float64, float64, clockRun) {
	lp := math.Log(p)
	rem, slack = rem+lp/r, slack+(float64(n)+2*math.Abs(lp))*clockEps/r+clockEps
	return rem, slack, threshold(next, rem, slack, k)
}
