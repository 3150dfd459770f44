package exec

import (
	"context"
	"errors"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/telemetry"
)

// SampleOptions tunes Sample and SampleBatch.
type SampleOptions struct {
	// Stop is the quality target; required by Sample (SampleBatch takes
	// one per target).
	Stop mc.StopRule
	// BatchRoots is the number of root paths SampleBatch simulates per
	// synchronization round (default 128, the one-shot loop's round).
	// Sample runs core's own rounds and ignores it.
	BatchRoots int
	// Trace, when set, observes the running estimate after every round.
	Trace func(mc.Result)
	// Tracer, when set, books one merge span per SampleBatch round
	// (counter and moment folds, estimates and variances). Telemetry
	// only.
	Tracer *telemetry.Tracer
	// Counters, when set, receives the run's finalized aggregate
	// counters (root paths and simulator steps alongside) exactly once,
	// at a successful return. The aggregate is the in-root-order fold of
	// every shard's per-root units, so it is identical across backends and
	// cluster sizes — the crossing-statistics ledger hangs off this
	// hook. Observability only.
	Counters func(agg core.Counters, roots, steps int64)
}

func (o SampleOptions) withDefaults() SampleOptions {
	if o.BatchRoots <= 0 {
		o.BatchRoots = 128
	}
	return o
}

// Sample answers one query over any execution backend. It is the task's
// core.GMLSS sampler running its own estimator loop (RunOn) over the
// backend's per-root shards, so the answer — estimate, variance, cost
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
	if opt.Stop == nil {
		return mc.Result{}, errors.New("exec: Sample requires a stop rule")
	}
	g, err := t.sampler(opt.Stop)
	if err != nil {
		return mc.Result{}, err
	}
	g.Trace = opt.Trace
	g.Observe = opt.Counters
	return g.RunOn(ctx, func(ctx context.Context, lo, hi int64) (core.ShardResult, error) {
		return ex.RunRoots(ctx, t, lo, hi, 1)
	})
}
