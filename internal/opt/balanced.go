package opt

import (
	"context"
	"fmt"
	"math"

	"durability/internal/core"
	"durability/internal/rng"
	"durability/internal/stats"
	"durability/internal/stochastic"
)

// BalancedPlan reconstructs a "balanced growth" partition plan (§5.1):
// boundaries are placed so that every level-advancement probability is
// approximately p* = tau^(1/m), the setting branching-process theory
// identifies as optimal (Eq. 12). The paper obtained such plans by manual
// tuning; this staged pilot search automates the same construction so the
// experiments can use MLSS-BAL baselines without a human in the loop.
//
// The search proceeds level by level. A population of pilot paths is
// simulated from the current entrance states; the next boundary is the
// (1-p*)-quantile of their maximum future value, so about p* of them cross
// it. Paths that cross contribute their first-crossing states as the next
// stage's entrance population (resampled with replacement to keep the
// population size fixed). Replays are driven by per-path deterministic
// substreams, so the crossing states are found without storing whole
// trajectories.
//
// tau is a rough prior estimate of the query answer (an order of magnitude
// suffices); m is the desired number of levels. The returned cost is the
// number of simulator invocations the search consumed.
func BalancedPlan(ctx context.Context, p *Problem, tau float64, m, pilotPaths int) (core.Plan, int64, error) {
	if err := p.validate(); err != nil {
		return core.Plan{}, 0, err
	}
	if tau <= 0 || tau >= 1 {
		return core.Plan{}, 0, fmt.Errorf("opt: prior tau %v must be in (0,1)", tau)
	}
	if m < 1 {
		return core.Plan{}, 0, fmt.Errorf("opt: level count %d must be >= 1", m)
	}
	if pilotPaths < 10 {
		pilotPaths = 10
	}
	pStar := math.Pow(tau, 1/float64(m))

	type entrance struct {
		state stochastic.State
		t     int
	}
	population := make([]entrance, pilotPaths)
	for i := range population {
		population[i] = entrance{state: p.Proc.Initial(), t: 0}
	}

	var cost int64
	var boundaries []float64
	last := 0.0
	resampleSrc := rng.NewStream(p.Seed, 1<<62)

	for stage := 0; len(boundaries) < m-1; stage++ {
		// Pass 1: maximum future value of each pilot path.
		maxes := make([]float64, len(population))
		for i, e := range population {
			src := rng.NewStream(p.Seed, uint64(stage)<<32|uint64(i))
			st := e.state.Clone()
			best := p.Query.ValueOf(st)
			for t := e.t + 1; t <= p.Query.Horizon; t++ {
				p.Proc.Step(st, t, src)
				cost++
				if v := p.Query.ValueOf(st); v > best {
					best = v
				}
			}
			maxes[i] = best
		}
		b := stats.Quantile(append([]float64(nil), maxes...), 1-pStar)
		if b >= 1 || b <= last+1e-9 {
			break // remaining advancement already easier than p*, or no progress
		}
		boundaries = append(boundaries, b)
		last = b

		// Pass 2: replay the same substreams and harvest first-crossing
		// entrance states.
		var next []entrance
		for i, e := range population {
			src := rng.NewStream(p.Seed, uint64(stage)<<32|uint64(i))
			st := e.state.Clone()
			for t := e.t + 1; t <= p.Query.Horizon; t++ {
				p.Proc.Step(st, t, src)
				cost++
				if p.Query.ValueOf(st) >= b {
					next = append(next, entrance{state: st.Clone(), t: t})
					break
				}
			}
		}
		if len(next) == 0 {
			break // quantile said some cross, replay disagreed only if degenerate
		}
		// Resample with replacement back to the pilot population size.
		population = population[:0]
		for i := 0; i < pilotPaths; i++ {
			population = append(population, next[resampleSrc.Intn(len(next))])
		}
		if err := ctx.Err(); err != nil {
			return core.Plan{}, cost, err
		}
	}
	plan, err := core.NewPlan(boundaries...)
	if err != nil {
		return core.Plan{}, cost, err
	}
	return plan, cost, nil
}
