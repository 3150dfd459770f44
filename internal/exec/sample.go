package exec

import (
	"context"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/telemetry"
)

// SampleOptions tunes Sample and SampleBatch.
type SampleOptions struct {
	// Stop is the quality target; required by Sample (SampleBatch takes
	// one per target).
	Stop mc.StopRule
	// Trace, when set, observes the running estimate after every round.
	Trace func(mc.Result)
	// Tracer, when set, books one merge span per SampleBatch round
	// (counter and moment folds, estimates and variances). Telemetry
	// only.
	Tracer *telemetry.Tracer
	// Counters, when set, receives the run's finalized aggregate
	// counters (root paths and simulator steps alongside) exactly once,
	// at a successful return. The aggregate is the in-order merge of every
	// round's in-root-order fold of per-root units, so it is identical
	// across backends and cluster sizes — the crossing-statistics ledger
	// hangs off this hook. Observability only.
	Counters func(agg core.Counters, roots, steps int64)
}

// Sample answers one query over any execution backend. It is the task's
// core.GMLSS sampler running its own estimator loop (RunOn) over the
// backend's roots (FoldRoots), so the answer — estimate, variance, cost
// and stopping point — is bit-for-bit core.GMLSS.Run's at the same seed,
// on every backend and cluster size.
//
// The task's Proc and Obs are required even over a remote backend: the
// estimator runs coordinator-side and needs the start level of the plan,
// which it reads from the start state (Start when pinned, the process's
// Initial otherwise).
func Sample(ctx context.Context, ex Executor, t Task, opt SampleOptions) (mc.Result, error) {
	if ex == nil {
		ex = Local{}
	}
	g, err := t.sampler()
	if err != nil {
		return mc.Result{}, err
	}
	g.Stop, g.Trace, g.Observe = opt.Stop, opt.Trace, opt.Counters
	return g.RunOn(ctx, func(ctx context.Context, lo, hi int64, into *core.Pool) error {
		return FoldRoots(ctx, ex, t, lo, hi, into)
	})
}
