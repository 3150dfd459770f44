package stochastic

import (
	"fmt"
	"math"

	"durability/internal/rng"
)

// RegimeSwitching is a Markov-modulated Gaussian walk: a hidden
// time-homogeneous Markov chain selects the active regime, and the
// observable accumulates that regime's drift and volatility each step.
// Markov-modulated processes are the standard way financial and
// reliability models capture "calm vs. turbulent" phases, and they stress
// the samplers in a specific way: hitting probability is dominated by
// excursions that coincide with the rare aggressive regime, so value
// functions based only on the observable underestimate how promising a
// turbulent-regime path is. Unbiasedness must survive regardless (§3:
// only efficiency depends on the value function).
type RegimeSwitching struct {
	Start    float64     // initial observable value
	Switch   [][]float64 // regime transition matrix (row-stochastic)
	Drift    []float64   // per-regime drift
	Sigma    []float64   // per-regime volatility
	StartReg int         // initial regime
}

// NewRegimeSwitching validates the regime definitions.
func NewRegimeSwitching(start float64, switchP [][]float64, drift, sigma []float64, startReg int) (*RegimeSwitching, error) {
	n := len(switchP)
	if n == 0 || len(drift) != n || len(sigma) != n {
		return nil, fmt.Errorf("stochastic: regime arrays disagree (%d transitions, %d drifts, %d sigmas)",
			n, len(drift), len(sigma))
	}
	if _, err := NewMarkovChain(switchP, 0); err != nil {
		return nil, fmt.Errorf("stochastic: regime switch matrix: %w", err)
	}
	for i, s := range sigma {
		if s <= 0 {
			return nil, fmt.Errorf("stochastic: regime %d has non-positive sigma %v", i, s)
		}
	}
	if startReg < 0 || startReg >= n {
		return nil, fmt.Errorf("stochastic: start regime %d out of range", startReg)
	}
	return &RegimeSwitching{Start: start, Switch: switchP, Drift: drift, Sigma: sigma, StartReg: startReg}, nil
}

// RegimeState carries the observable and the hidden regime.
type RegimeState struct {
	V      float64
	Regime int
}

// Clone implements State.
func (s *RegimeState) Clone() State {
	c := *s
	return &c
}

// RegimeValue observes the accumulated value.
func RegimeValue(s State) float64 {
	rs, ok := s.(*RegimeState)
	if !ok {
		panic(fmt.Sprintf("stochastic: RegimeValue applied to %T", s))
	}
	return rs.V
}

// RegimeIndex observes the hidden regime (useful in tests; a real query
// would not see it).
func RegimeIndex(s State) float64 {
	return float64(s.(*RegimeState).Regime)
}

// Name implements Process.
func (r *RegimeSwitching) Name() string { return fmt.Sprintf("regime-switching-%d", len(r.Drift)) }

// Initial implements Process.
func (r *RegimeSwitching) Initial() State {
	return &RegimeState{V: r.Start, Regime: r.StartReg}
}

// Step implements Process: switch the regime, then move by its dynamics.
func (r *RegimeSwitching) Step(s State, _ int, src *rng.Source) {
	rs := s.(*RegimeState)
	rs.Regime = src.Categorical(r.Switch[rs.Regime])
	rs.V += r.Drift[rs.Regime] + r.Sigma[rs.Regime]*src.Norm()
}

// NewStateVec implements BulkProcess.
func (r *RegimeSwitching) NewStateVec(lanes int) StateVec { return newRegimeVec(lanes) }

// StepVec implements BulkProcess: Step's draw order per lane — the
// regime transition first, then the Gaussian increment. The increments
// of up to rng.LaneChunk lanes are drawn together (rng.NormScratch.NormLanes) after
// their transitions; each lane draws from its own source, so its
// sequence is Step's.
func (r *RegimeSwitching) StepVec(v StateVec, lanes []int, _ []int, src []*rng.Source) {
	rv := v.(*regimeVec)
	eps := &rv.draw.eps
	for len(lanes) > 0 {
		chunk := lanes[:min(len(lanes), rng.LaneChunk)]
		for _, i := range chunk {
			rs := &rv.lane[i]
			rs.Regime = src[i].Categorical(r.Switch[rs.Regime])
		}
		rv.draw.NormLanes(eps[:], chunk, src)
		for k, i := range chunk {
			rs := &rv.lane[i]
			rs.V += r.Drift[rs.Regime] + r.Sigma[rs.Regime]*eps[k]
		}
		lanes = lanes[len(chunk):]
	}
}

// StationaryRegimes returns the stationary distribution of the regime
// chain by power iteration — a calibration helper for choosing regimes
// whose rare phase has the intended occupancy.
func (r *RegimeSwitching) StationaryRegimes() []float64 {
	n := len(r.Switch)
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < 10000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[j] += pi[i] * r.Switch[i][j]
			}
		}
		delta := 0.0
		for i := range pi {
			delta += math.Abs(next[i] - pi[i])
		}
		copy(pi, next)
		if delta < 1e-13 {
			break
		}
	}
	return pi
}
