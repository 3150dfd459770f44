package exec

import (
	"context"
	"time"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/telemetry"
)

// SampleBatch runs the §3.1 coordination loop once for a whole threshold
// lattice: the task's core.GMLSS sampler runs core's estimator loop over
// one shared stream of root paths simulated through the executor
// (core.GMLSS.RunTargetsOn). Every target's estimate is read off the
// merged counters as a cumulative level-crossing prefix
// (core.EstimatePrefixFromCounters) with a delta-method variance per
// prefix from the run's moments (core.Moments), evaluated every round.
// The loop stops when every target's stop rule is satisfied, so the
// shared run is sized by the hardest threshold and every easier one rides
// along for free.
//
// The returned results align with targets. Steps and Paths on each result
// are the shared run's totals — the cost is joint, not attributable per
// threshold; sum Steps over a batch's results and you count the run once
// per target. Hits reports the crossing events observed at the target's
// own boundary. A one-target batch at the top level is exactly Sample.
//
// Root i draws substream i wherever it is simulated and every round's
// per-root units fold in root order, so the per-threshold answers are
// bit-for-bit identical across backends and cluster sizes at equal seed.
func SampleBatch(ctx context.Context, ex Executor, t Task, targets []core.Target, opt SampleOptions) ([]mc.Result, error) {
	if ex == nil {
		ex = Local{}
	}
	g, err := t.sampler()
	if err != nil {
		return nil, err
	}
	// A merge span books each round's merge, estimates and variances:
	// from the range's return to the round's trace. One run, one trace:
	// the last target's running result (the serve layer orders targets
	// ascending, so this is the top — hardest — threshold).
	var merging time.Time
	g.Trace = func(r mc.Result) {
		opt.Tracer.Observe(telemetry.StageMerge, telemetry.Since(merging), 0)
		if opt.Trace != nil {
			opt.Trace(r)
		}
	}
	g.Observe = opt.Counters
	return g.RunTargetsOn(ctx, func(ctx context.Context, lo, hi int64, into *core.Pool) error {
		err := FoldRoots(ctx, ex, t, lo, hi, into)
		merging = telemetry.Now()
		return err
	}, targets)
}
