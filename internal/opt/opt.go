// Package opt implements the level-design optimisation of §5 of the
// paper: the empirical partition-plan cost metric eval(B) of Eq. 15, the
// adaptive greedy partition strategy of Algorithm 1, and a staged
// balanced-growth search that reconstructs the paper's manually tuned
// "MLSS-BAL" plans.
package opt

import (
	"context"
	"errors"
	"fmt"
	"math"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// Problem bundles everything plan evaluation needs: the model, the query
// and the MLSS execution parameters shared by all trial runs.
type Problem struct {
	Proc    stochastic.Process
	Query   core.Query
	Ratio   int    // splitting ratio used during trials and by the final plan
	Seed    uint64 // base seed; trial i shifts it so trials are independent
	Workers int    // ceiling on the kernels a trial round steps at once (<= 0: GOMAXPROCS)

	// TrialSteps is the per-trial simulation budget t0 (in simulator
	// invocations). Default 20000.
	TrialSteps int64
}

func (p *Problem) trialSteps() int64 {
	if p.TrialSteps <= 0 {
		return 20000
	}
	return p.TrialSteps
}

func (p *Problem) validate() error {
	if p.Proc == nil {
		return errors.New("opt: problem has no process")
	}
	if err := p.Query.Validate(); err != nil {
		return err
	}
	if p.Ratio < 1 {
		return fmt.Errorf("opt: splitting ratio %d must be >= 1", p.Ratio)
	}
	return nil
}

// Trial is the outcome of evaluating one candidate plan.
type Trial struct {
	Plan    core.Plan
	Score   float64 // eval(B) of Eq. 15, lower is better; +Inf if the trial saw no hits
	Result  mc.Result
	Entries []int64 // first-landing counts per level from the trial run
}

// Evaluate scores a partition plan with a fixed-budget s-MLSS trial run.
//
// Eq. 15 reads eval(B) = Var(N_m^<1>)/r^(2(m-1)) * c_B/t0. A fixed-budget
// run reports Variance = Var(N_m^<1>)/(N0 r^(2(m-1))) and cost
// c_B = Steps/N0, so eval(B) = Variance * Steps / t0; t0 is identical for
// every candidate and is dropped. Plans whose trial never reaches the
// target score +Inf — they produced no usable estimate at this budget.
//
// Trials use s-MLSS even when the final sampler is g-MLSS: §5's metric is
// derived under the no-skipping surrogate precisely because it is cheap,
// and the choice only affects plan selection, never correctness.
func (p *Problem) Evaluate(ctx context.Context, plan core.Plan, trialID uint64) (Trial, error) {
	if err := p.validate(); err != nil {
		return Trial{}, err
	}
	s := &core.SMLSS{
		Proc:    p.Proc,
		Query:   p.Query,
		Plan:    plan,
		Ratio:   p.Ratio,
		Seed:    p.Seed ^ (0x9e3779b97f4a7c15 * (trialID + 1)),
		Workers: p.Workers,
	}
	res, entries, err := s.Trial(ctx, p.trialSteps())
	if err != nil {
		return Trial{Plan: plan, Result: res, Entries: entries}, err
	}
	score := math.Inf(1)
	if res.Hits > 0 && res.Variance > 0 {
		score = res.Variance * float64(res.Steps)
	}
	return Trial{Plan: plan, Score: score, Result: res, Entries: entries}, nil
}

// advancement returns the estimated level-advancement probabilities
// implied by a trial's entry counts: adv[0] = N_1/N_0 (from the root
// level) and adv[i] = N_{i+1}/(r*N_i) for interior levels. Levels with no
// entries report probability 0.
func advancement(entries []int64, roots int64, ratio int) []float64 {
	m := len(entries) - 1 // entries indexed 1..m
	adv := make([]float64, m)
	prev := roots
	for i := 1; i <= m; i++ {
		if prev > 0 {
			denom := float64(prev)
			if i > 1 {
				denom *= float64(ratio)
			}
			adv[i-1] = float64(entries[i]) / denom
		}
		prev = entries[i]
	}
	return adv
}

// GreedyResult is the output of the adaptive greedy partition search.
type GreedyResult struct {
	Plan        core.Plan // the selected partition plan
	Score       float64   // its eval(B) score
	SearchSteps int64     // simulator invocations spent on all trial runs
	Rounds      int       // boundary-placement rounds performed
	Trials      []Trial   // every candidate evaluation, for diagnostics
}

// GreedyOptions tunes Algorithm 1.
type GreedyOptions struct {
	// Candidates per round (Line 5 of Algorithm 1); they are placed
	// uniformly inside the interval under refinement. Default 5.
	Candidates int
	// MaxBoundaries caps the number of rounds as a safety net. Default 10.
	MaxBoundaries int
	// MaxEscalations bounds the trial-budget escalation for rare queries:
	// when a whole round of candidates produces no usable estimate (no
	// trial reached the target), the budget quadruples and the round
	// retries, up to this many times. Default 4 (256x the base budget).
	MaxEscalations int
}

func (o GreedyOptions) candidates() int {
	if o.Candidates <= 0 {
		return 5
	}
	return o.Candidates
}

func (o GreedyOptions) maxBoundaries() int {
	if o.MaxBoundaries <= 0 {
		return 10
	}
	return o.MaxBoundaries
}

func (o GreedyOptions) maxEscalations() int {
	if o.MaxEscalations <= 0 {
		return 4
	}
	return o.MaxEscalations
}

// Greedy runs the adaptive greedy partition strategy (Algorithm 1 of §5.2):
// starting from the whole interval (0,1) it places one boundary per round,
// keeping a candidate only if it improves eval(B), and always refines next
// the level with the smallest advancement probability — the "obstacle"
// level. It stops the first time no candidate improves the metric.
func Greedy(ctx context.Context, p *Problem, opts GreedyOptions) (GreedyResult, error) {
	if err := p.validate(); err != nil {
		return GreedyResult{}, err
	}
	out := GreedyResult{Score: math.Inf(1)}
	vlo, vhi := 0.0, 1.0
	var best Trial
	haveBest := false
	trialID := uint64(0)
	// Work on a copy so budget escalation does not mutate the caller's
	// problem definition.
	prob := *p
	escalations := 0

	for round := 0; round < opts.maxBoundaries(); round++ {
		k := opts.candidates()
		improved := false
		sawEstimate := false
		var roundBest Trial
		for c := 1; c <= k; c++ {
			v := vlo + (vhi-vlo)*float64(c)/float64(k+1)
			plan, err := core.NewPlan(append(append([]float64(nil), best.Plan.Boundaries...), v)...)
			if err != nil {
				continue // candidate collided with an existing boundary
			}
			tr, err := prob.Evaluate(ctx, plan, trialID)
			trialID++
			out.SearchSteps += tr.Result.Steps
			if err != nil {
				return out, err
			}
			out.Trials = append(out.Trials, tr)
			if !math.IsInf(tr.Score, 1) {
				sawEstimate = true
			}
			if tr.Score < out.Score {
				out.Score = tr.Score
				roundBest = tr
				improved = true
			}
		}
		if !improved {
			// Rare-query escalation: if no candidate trial ever reached
			// the target, the budget was simply too small to see a hit —
			// quadruple it and retry the round rather than settling for a
			// blind plan.
			if !sawEstimate && !haveBest && escalations < opts.maxEscalations() {
				escalations++
				prob.TrialSteps = prob.trialSteps() * 4
				round--
				continue
			}
			break
		}
		best = roundBest
		haveBest = true
		out.Plan = best.Plan
		out.Rounds = round + 1

		// Line 11–12: refine the level with the smallest advancement
		// probability next.
		adv := advancement(best.Entries, best.Result.Paths, p.Ratio)
		worst := 0
		for i := 1; i < len(adv); i++ {
			if adv[i] < adv[worst] {
				worst = i
			}
		}
		vlo = 0.0
		if worst > 0 {
			vlo = best.Plan.Boundary(worst)
		}
		vhi = 1.0
		if worst < len(adv)-1 {
			vhi = best.Plan.Boundary(worst + 1)
		}
	}
	if !haveBest {
		// No plan beat +Inf: fall back to no interior boundaries (SRS-like).
		out.Plan = core.Plan{}
	}
	return out, nil
}
