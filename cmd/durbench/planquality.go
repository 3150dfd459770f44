package main

import (
	"context"
	"fmt"
	"reflect"

	"durability/internal/cluster"
	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/planstats"
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

// checkPlanObservation is the ledger's exactness drill, the crossing-
// statistics sibling of checkAttribution: a server with a ledger answers
// a handful of queries, and the ledger's booked roots and steps must
// equal the responses' own counters exactly — not within a tolerance —
// because both sides count the same events. The drill runs on the local
// backend and on an in-process cluster backend; each backend's ledger
// must match that backend's own responses, and the two ledgers must be
// equal: one-shot queries run the same estimator loop on every backend,
// and the coordinator folds shard replies in root-range order before
// booking.
func checkPlanObservation(ctx context.Context, re float64, seed uint64) error {
	betas := []float64{120, 126, 130}

	run := func(backend exec.Executor) ([]planstats.Snapshot, int64, int64, error) {
		ledger := planstats.NewLedger()
		reg := serve.Registry{
			"gbm": func() (stochastic.Process, map[string]stochastic.Observer, error) {
				return &stochastic.GBM{S0: s0, Mu: mu, Sigma: sigma}, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
			},
		}
		srv := serve.NewServer(reg, serve.Config{PoolWorkers: 2, Seed: seed, DefaultRelErr: re, Executor: backend, Ledger: ledger})
		defer srv.Close()
		var roots, steps int64
		for _, b := range betas {
			resp, err := srv.Do(ctx, serve.Request{Model: "gbm", Beta: b, Horizon: horizon, RelErr: re})
			if err != nil {
				return nil, 0, 0, fmt.Errorf("observation query beta=%.0f: %w", b, err)
			}
			roots += resp.Paths
			steps += resp.Steps - resp.SearchSteps // the ledger books sampling cost only
		}
		return ledger.Snapshots(), roots, steps, nil
	}

	exact := func(name string, backend exec.Executor) ([]planstats.Snapshot, error) {
		snaps, roots, steps, err := run(backend)
		if err != nil {
			return nil, err
		}
		if len(snaps) == 0 {
			return nil, fmt.Errorf("durbench: %s plan ledger booked nothing; observation is not wired", name)
		}
		var bookedRoots, bookedSteps int64
		for _, snap := range snaps {
			bookedRoots += snap.Roots
			bookedSteps += snap.Steps
		}
		if bookedRoots != roots {
			return nil, fmt.Errorf("durbench: %s ledger booked %d roots != responses' %d paths", name, bookedRoots, roots)
		}
		if bookedSteps != steps {
			return nil, fmt.Errorf("durbench: %s ledger booked %d steps != responses' %d sampling steps", name, bookedSteps, steps)
		}
		return snaps, nil
	}

	local, err := exact("local", nil)
	if err != nil {
		return err
	}

	// The cluster side: the coordinator books the deltas it folded out of
	// shard replies, so the same `==` must hold behind the rpc seam.
	addrs, stop, err := cluster.ServeLocal(cluster.Registry{
		"gbm": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return &stochastic.GBM{S0: s0, Mu: mu, Sigma: sigma}, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
	}, 2, 2)
	if err != nil {
		return err
	}
	defer stop()
	backend := exec.NewCluster(addrs...)
	defer backend.Close()

	clustered, err := exact("cluster", backend)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(local, clustered) {
		return fmt.Errorf("durbench: cluster plan ledger %+v != local %+v", clustered, local)
	}
	return nil
}
