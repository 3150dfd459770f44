// Package core implements Multi-Level Splitting Sampling (MLSS), the
// paper's primary contribution: the simple sampler s-MLSS of §3 (unbiased
// only under the "no level-skipping" assumption) and the general sampler
// g-MLSS of §4 (unbiased for arbitrary processes), together with their
// variance estimators (direct for s-MLSS, delta-method moments for g-MLSS)
// and the level-partition machinery both share.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"durability/internal/stochastic"
)

// ValueFunc is the heuristic value function f(x) of §3: it maps a state
// into [0, 1], where 1 means "the query condition holds right now" and
// larger values mean the path is closer to hitting the condition.
// Estimator unbiasedness never depends on f — only efficiency does.
type ValueFunc func(s stochastic.State) float64

// ThresholdValue builds the paper's standard value function for conditions
// of the form z(x) >= beta:
//
//	f(x) = clamp(z(x)/beta, 0, 1)
//
// so f reaches 1 exactly when the condition holds. beta must be positive.
// A Query's threshold form (Z, Beta) is the same f, evaluated by the
// kernels against precomputed cuts instead.
func ThresholdValue(z stochastic.Observer, beta float64) ValueFunc {
	if beta <= 0 {
		panic("core: ThresholdValue requires beta > 0")
	}
	return func(s stochastic.State) float64 { return clampRatio(z(s), beta) }
}

// clampRatio is the threshold form's f: clamp(z/beta, 0, 1).
func clampRatio(z, beta float64) float64 {
	v := z / beta
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Query is a durability prediction query: the probability that the value
// function f reaches 1 at some time 1 <= t <= Horizon. It takes one of two
// forms. The threshold form sets Z and Beta for the condition z(x) >= beta
// and the paper's f = clamp(z/beta, 0, 1); every serving path uses it. The
// custom form sets Value to any f instead.
type Query struct {
	Z       stochastic.Observer
	Beta    float64
	Value   ValueFunc
	Horizon int
}

// Validate reports configuration errors.
func (q Query) Validate() error {
	switch {
	case q.Z != nil && q.Value != nil:
		return errors.New("core: query sets both a threshold observer and a value function")
	case q.Z != nil:
		if !(q.Beta > 0) || math.IsInf(q.Beta, 1) {
			return fmt.Errorf("core: query threshold %v must be positive and finite", q.Beta)
		}
	case q.Value == nil:
		return errors.New("core: query has no value function")
	}
	if q.Horizon <= 0 {
		return fmt.Errorf("core: query horizon %d must be positive", q.Horizon)
	}
	return nil
}

// ValueOf evaluates the query's value function f at s.
func (q Query) ValueOf(s stochastic.State) float64 {
	o := q.observation()
	return o.f(o.z(s))
}

// observation is a query as the kernels' hot loops test it: one reading
// z per step, compared against a cut per boundary, where the cut of
// boundary b is the smallest z whose f reaches b. Only crossings and the
// horizon map z to f.
type observation struct {
	z    stochastic.Observer
	beta float64 // 0 in the custom form, where z is f itself
}

func (q Query) observation() observation {
	if q.Z != nil {
		return observation{z: q.Z, beta: q.Beta}
	}
	return observation{z: stochastic.Observer(q.Value)}
}

// f maps a reading to the value function.
func (o observation) f(z float64) float64 {
	if o.beta == 0 {
		return z
	}
	return clampRatio(z, o.beta)
}

// cut returns the cut of boundary b, 0 < b <= 1: for every reading z,
// NaN included, z < cut exactly when f(z) < b. In the threshold form
// f(z) >= b exactly when z/beta >= b, and IEEE division by a positive
// beta is monotone in z, so a bisection over the ordered bit patterns of
// the non-negative floats finds the first z that gets there (+Inf if no
// finite z does).
func (o observation) cut(b float64) float64 {
	if o.beta == 0 {
		return b
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // f(lo) < b; f(hi) >= b or hi is +Inf
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if math.Float64frombits(mid)/o.beta >= b {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// Plan is a level partition plan: the interior boundaries
// 0 < beta_1 < beta_2 < ... < beta_{m-1} < 1 of §3. Together with the
// implicit beta_0 = 0 and beta_m = 1 they induce m+1 levels
// L_0 = [0, beta_1), ..., L_{m-1} = [beta_{m-1}, 1), L_m = [1, 1].
type Plan struct {
	Boundaries []float64

	// Ratios optionally fixes a per-level splitting ratio alongside the
	// boundaries: Ratios[j-1] is the offspring count for splits landing in
	// level L_j (so len(Ratios) == M()-1 when set). g-MLSS bookkeeps
	// per-split advancement fractions, so variable ratios stay unbiased
	// (§4.1); covering plans built for batch answering rely on them — a
	// dense threshold ladder has near-certain advancement at most
	// boundaries, where any uniform ratio > 1 would grow the splitting
	// tree geometrically. Empty means "use the sampler's uniform ratio".
	Ratios []int
}

// NewPlan validates and returns a plan. Boundaries are sorted defensively.
func NewPlan(boundaries ...float64) (Plan, error) {
	b := append([]float64(nil), boundaries...)
	sort.Float64s(b)
	for i, v := range b {
		if v <= 0 || v >= 1 {
			return Plan{}, fmt.Errorf("core: boundary %v outside (0,1)", v)
		}
		if i > 0 && v == b[i-1] {
			return Plan{}, fmt.Errorf("core: duplicate boundary %v", v)
		}
	}
	return Plan{Boundaries: b}, nil
}

// MustPlan is NewPlan for statically known boundaries; it panics on error.
func MustPlan(boundaries ...float64) Plan {
	p, err := NewPlan(boundaries...)
	if err != nil {
		panic(err)
	}
	return p
}

// UniformPlan places m-1 equally spaced interior boundaries, giving m
// levels below the target.
func UniformPlan(m int) Plan {
	if m < 1 {
		panic("core: UniformPlan needs m >= 1")
	}
	b := make([]float64, m-1)
	for i := range b {
		b[i] = float64(i+1) / float64(m)
	}
	return Plan{Boundaries: b}
}

// M returns the paper's m: the number of level-advancement probabilities,
// i.e. the number of boundaries including the implicit target boundary 1.
func (p Plan) M() int { return len(p.Boundaries) + 1 }

// Boundary returns beta_i for 1 <= i <= M (Boundary(M) == 1).
func (p Plan) Boundary(i int) float64 {
	if i == p.M() {
		return 1
	}
	return p.Boundaries[i-1]
}

// LevelOf returns the index of the highest boundary that f has crossed:
// 0 when f < beta_1, i when beta_i <= f < beta_{i+1}, and M when f >= 1
// (the target). It runs in O(log m).
func (p Plan) LevelOf(f float64) int {
	if f >= 1 {
		return p.M()
	}
	// Number of interior boundaries <= f: SearchFloat64s finds the first
	// boundary >= f; an exact match also counts as crossed.
	idx := sort.SearchFloat64s(p.Boundaries, f)
	if idx < len(p.Boundaries) && p.Boundaries[idx] == f {
		idx++
	}
	return idx
}

// Equal reports whether two plans have identical boundaries and per-level
// ratios. Counters accumulated under one plan are interpretable under
// another exactly when the plans are equal, which incremental maintenance
// relies on.
func (p Plan) Equal(o Plan) bool {
	if len(p.Boundaries) != len(o.Boundaries) || len(p.Ratios) != len(o.Ratios) {
		return false
	}
	for i, b := range p.Boundaries {
		if b != o.Boundaries[i] {
			return false
		}
	}
	for i, r := range p.Ratios {
		if r != o.Ratios[i] {
			return false
		}
	}
	return true
}

func (p Plan) String() string {
	return fmt.Sprintf("plan%v", p.Boundaries)
}
