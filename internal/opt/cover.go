package opt

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"durability/internal/core"
	"durability/internal/rng"
)

// The covering construction's fixed shape. CoverRatioCap bounds the
// per-level splitting ratio the design may assign. It doubles as the
// hardness threshold for boundary insertion: a gap whose advancement
// probability is below 1/CoverRatioCap cannot be balanced by splitting
// alone and gets a midpoint boundary. maxExtra caps the boundaries
// inserted beyond the required set. A probe that sees too few top-level
// reaches to estimate advancement quadruples its step budget and
// retries, up to maxEscalations times — the same 256x worst case as
// Greedy's trial escalation.
const (
	CoverRatioCap = 8
	maxExtra      = 16
)

// Cover builds a covering level plan: a partition whose boundaries include
// every value in required — so one shared g-MLSS run can read an unbiased
// estimate off each of them as a prefix — refined and ratio-balanced for
// efficiency. The batch answering path (internal/serve) uses it to answer
// a whole threshold ladder with one splitting run.
//
// Unlike Greedy, which is free to place boundaries anywhere, the covering
// construction is constrained: required boundaries are load-bearing (they
// are the thresholds being answered) and can never be dropped. Efficiency
// comes from two dials instead. Per-level splitting ratios are matched to
// measured advancement probabilities (r_i ~ 1/p_i, the balanced-growth
// prescription of §5.1 applied level-locally) — essential for dense
// ladders, where advancement at most boundaries is near 1 and any uniform
// ratio > 1 would grow the splitting tree geometrically. And gaps too hard
// for the ratio cap (p_i < 1/CoverRatioCap) receive midpoint boundaries,
// the covering analog of Algorithm 1's obstacle-level refinement.
//
// Advancement is measured with unsplit probe paths that track the maximum
// level reached — deliberately not the s-MLSS landing trials Greedy
// scores with, because a path whose step size exceeds a dense ladder's
// gap width skips landing windows almost surely, which would read as
// "nothing ever advances". Plan choice affects only cost, never
// unbiasedness, so probe error is benign.
//
// The returned plan contains every required boundary (plus any inserted
// ones) and the designed per-level splitting ratios; the returned cost is
// the number of simulator invocations all probes consumed.
func Cover(ctx context.Context, p *Problem, required []float64) (core.Plan, int64, error) {
	if err := p.validate(); err != nil {
		return core.Plan{}, 0, err
	}
	for _, r := range required {
		if r <= 0 || r >= 1 {
			return core.Plan{}, 0, fmt.Errorf("opt: required boundary %v outside (0,1)", r)
		}
	}
	plan, err := core.NewPlan(dedupSorted(required)...)
	if err != nil {
		return core.Plan{}, 0, err
	}

	var cost int64
	probes := 0
	budget := p.trialSteps()
	escalations := 0
	// minReach is the evidence floor: with fewer top-level reaches the
	// advancement profile is too noisy to drive insertion or ratio design.
	const minReach = 8

	var reach []int64
	var roots int64
	var initLevel int
	for {
		if err := ctx.Err(); err != nil {
			return core.Plan{}, cost, err
		}
		var steps int64
		reach, initLevel, roots, steps, err = probeReach(ctx, p, plan, budget, uint64(probes))
		probes++
		cost += steps
		if err != nil {
			return core.Plan{}, cost, err
		}
		m := plan.M()
		if reach[m] < minReach && escalations < maxEscalations {
			escalations++
			budget *= 4
			continue
		}

		// Find the hardest gap; insert a midpoint when even the ratio cap
		// cannot balance it.
		adv := advFromReach(reach, initLevel, roots)
		worst, worstAdv := -1, 1.0
		for i := initLevel; i < m; i++ {
			a := adv[i]
			if a < 0 { // never reached: no evidence to refine on past here
				break
			}
			if a < worstAdv {
				worst, worstAdv = i, a
			}
		}
		if worst < 0 || worstAdv*CoverRatioCap >= 1 || len(plan.Boundaries)-len(required) >= maxExtra {
			break
		}
		lo := 0.0
		if worst > 0 {
			lo = plan.Boundary(worst)
		}
		hi := plan.Boundary(worst + 1)
		mid := lo + (hi-lo)/2
		refined, err := core.NewPlan(append(append([]float64(nil), plan.Boundaries...), mid)...)
		if err != nil {
			break // the gap is too narrow to split further; accept the plan
		}
		plan = refined
	}

	plan.Ratios = designRatios(plan, reach, initLevel, roots, p.Ratio)
	return plan, cost, nil
}

// probeReach simulates unsplit root paths until the step budget is spent
// (every started path runs to completion, so the count of paths is itself
// deterministic) and counts, per level, how many reached it: reach[i] =
// paths whose maximum value-level was >= i. Probe path j of round probeID
// draws its own deterministic substream, so the whole construction is a
// pure function of (problem, required).
func probeReach(ctx context.Context, p *Problem, plan core.Plan, stepBudget int64, probeID uint64) (reach []int64, initLevel int, roots, steps int64, err error) {
	m := plan.M()
	initLevel = plan.LevelOf(p.Query.ValueOf(p.Proc.Initial()))
	if initLevel >= m {
		return nil, 0, 0, 0, errors.New("opt: initial state already satisfies the query")
	}
	reach = make([]int64, m+1)
	seed := p.Seed ^ (0x9e3779b97f4a7c15 * (probeID + 1))
	for j := uint64(0); steps < stepBudget; j++ {
		if err := ctx.Err(); err != nil {
			return reach, initLevel, roots, steps, err
		}
		src := rng.NewStream(seed, j)
		st := p.Proc.Initial()
		best := initLevel
		for t := 1; t <= p.Query.Horizon && best < m; t++ {
			p.Proc.Step(st, t, src)
			steps++
			if lvl := plan.LevelOf(p.Query.ValueOf(st)); lvl > best {
				best = lvl
			}
		}
		roots++
		for i := initLevel + 1; i <= best; i++ {
			reach[i]++
		}
	}
	return reach, initLevel, roots, steps, nil
}

// advFromReach derives per-level conditional advancement estimates:
// adv[i] = reach[i+1]/reach[i] for levels from initLevel (whose base is
// the probe size) upward. Levels never reached report -1.
func advFromReach(reach []int64, initLevel int, roots int64) []float64 {
	m := len(reach) - 1
	adv := make([]float64, m)
	prev := roots
	for i := initLevel; i < m; i++ {
		if prev == 0 {
			adv[i] = -1
		} else {
			adv[i] = float64(reach[i+1]) / float64(prev)
		}
		prev = reach[i+1]
	}
	return adv
}

// designRatios assigns each splittable level the balanced-growth ratio
// round(1/p_i), clamped to [1, CoverRatioCap]. Levels without
// advancement evidence fall back to the problem's base ratio (clamped) —
// they are reached too rarely for their ratio to dominate cost either way.
func designRatios(plan core.Plan, reach []int64, initLevel int, roots int64, base int) []int {
	m := plan.M()
	adv := advFromReach(reach, initLevel, roots)
	ratios := make([]int, m-1)
	for j := 1; j < m; j++ {
		r := base
		if j >= initLevel && j < len(adv) && adv[j] > 0 {
			r = int(1/adv[j] + 0.5)
		}
		if r < 1 {
			r = 1
		}
		if r > CoverRatioCap {
			r = CoverRatioCap
		}
		ratios[j-1] = r
	}
	return ratios
}

// dedupSorted sorts a copy of vs and drops exact duplicates.
func dedupSorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}
