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
	"sort"

	"durability/internal/stochastic"
)

// ValueFunc is the heuristic value function f(x_t) of §3: it maps a state
// (and the current time) into [0, 1], where 1 means "the query condition
// holds right now" and larger values mean the path is closer to hitting
// the condition. Estimator unbiasedness never depends on f — only
// efficiency does.
type ValueFunc func(s stochastic.State, t int) float64

// ThresholdValue builds the paper's standard value function for conditions
// of the form z(x) >= beta:
//
//	f(x) = clamp(z(x)/beta, 0, 1)
//
// so f reaches 1 exactly when the condition holds. beta must be positive.
func ThresholdValue(z stochastic.Observer, beta float64) ValueFunc {
	if beta <= 0 {
		panic("core: ThresholdValue requires beta > 0")
	}
	return func(s stochastic.State, _ int) float64 {
		v := z(s) / beta
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
}

// Query is a durability prediction query expressed through a value
// function: the probability that f reaches 1 at some time 1 <= t <= Horizon.
type Query struct {
	Value   ValueFunc
	Horizon int
}

// Validate reports configuration errors.
func (q Query) Validate() error {
	if q.Value == nil {
		return errors.New("core: query has no value function")
	}
	if q.Horizon <= 0 {
		return fmt.Errorf("core: query horizon %d must be positive", q.Horizon)
	}
	return nil
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
