package main

import (
	"context"
	"fmt"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

// runPlanQuality measures what the §5.2 level search is worth: the same
// threshold query answered to the same relative-error target once under
// the searched plan and once under a deliberately mis-specified one.
// The mis-specification keeps only every other searched boundary — an
// under-split ladder whose per-level crossing probabilities are roughly
// the square of the designed 1/ratio, so each level costs more variance
// than the search budgeted for. Both step counts are pure functions of
// the seed, so scripts/bench guards them like the batch and recovery
// scenarios; the ratio is the plan-quality headline GET /plans' drift
// verdicts exist to protect.
//
// The scenario thresholds at pqBeta rather than the shared beta: plan
// quality only matters in the rare-event regime. At the maintenance
// threshold (p ~ 0.1) the search settles on a single boundary, and a
// one-boundary ladder costs the same wherever the boundary sits — the
// penalty would measure nothing.
func runPlanQuality(ctx context.Context, re float64, seed uint64) (benchReport, error) {
	const ratio = 3
	const pqBeta = 170 // p ~ 2e-3 at the shared GBM parameters
	market := &stochastic.GBM{S0: s0, Mu: mu, Sigma: sigma}
	runner := &serve.Runner{} // no cache: the search runs at the query's own threshold and seed
	spec := serve.Spec{
		Proc:       market,
		Obs:        stochastic.ScalarValue,
		ModelID:    "gbm",
		ObserverID: "price",
		Beta:       pqBeta,
		Horizon:    horizon,
		Method:     serve.GMLSS,
		PlanMode:   serve.PlanAuto,
		Ratio:      ratio,
		Seed:       seed,
		SimWorkers: 1,
		Stop:       mc.Any{mc.RETarget{Target: re}},
	}
	res, meta, err := runner.Run(ctx, spec)
	if err != nil {
		return benchReport{}, fmt.Errorf("plan-quality searched run: %w", err)
	}
	plannedSteps := res.Steps - meta.SearchSteps // sampling only: the misplanned side pays no search

	bad := core.Plan{}
	for i := 0; i < len(meta.Plan.Boundaries); i += 2 {
		bad.Boundaries = append(bad.Boundaries, meta.Plan.Boundaries[i])
	}
	if len(bad.Boundaries) == len(meta.Plan.Boundaries) {
		// A one-boundary searched plan survives halving intact; misplace
		// the single boundary instead.
		bad.Boundaries = []float64{0.5}
	}
	mspec := spec
	mspec.PlanMode = serve.PlanFixed
	mspec.Plan = bad
	mres, _, err := runner.Run(ctx, mspec)
	if err != nil {
		return benchReport{}, fmt.Errorf("plan-quality misplanned run: %w", err)
	}

	pairHist := telemetry.NewHistogram(telemetry.SizeBuckets)
	pairHist.Observe(float64(plannedSteps))
	pairHist.Observe(float64(mres.Steps))
	return benchReport{
		Scenario:        fmt.Sprintf("plan-quality gbm(s0=%.0f) beta=%.0f horizon=%d ratio=%d", s0, float64(pqBeta), horizon, ratio),
		Backend:         "local",
		RelErr:          re,
		PlannedSteps:    plannedSteps,
		MisplannedSteps: mres.Steps,
		Speedup:         float64(mres.Steps) / float64(plannedSteps),
		StepsHistogram:  histJSON(pairHist),
	}, nil
}
