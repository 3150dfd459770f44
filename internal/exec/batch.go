package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/telemetry"
)

// BatchTarget is one threshold of a batch, identified by the plan level
// its normalized value sits at (the boundary index; the top threshold is
// level M). Each target carries its own stop rule, evaluated against the
// target's running prefix result.
type BatchTarget struct {
	Level int
	Stop  mc.StopRule
}

// SampleBatch runs the §3.1 coordination loop once for a whole threshold
// lattice: one shared stream of root paths is simulated through the
// executor, and every target's estimate is read off the merged counters
// as a cumulative level-crossing prefix (core.EstimatePrefixFromCounters)
// with a delta-method variance per prefix from the run's moments
// (core.Moments), evaluated every round. The loop stops when every
// target's stop rule is satisfied, so the shared run is sized by the
// hardest threshold and every easier one rides along for free.
//
// The returned results align with targets. Steps and Paths on each result
// are the shared run's totals — the cost is joint, not attributable per
// threshold; sum Steps over a batch's results and you count the run once
// per target. Hits reports the crossing events observed at the target's
// own boundary.
//
// The per-round batch size is fixed, root i draws substream i wherever it
// is simulated, and every round's per-root units fold in root order — so
// the per-threshold answers are bit-for-bit identical across backends and
// cluster sizes at equal seed.
func SampleBatch(ctx context.Context, ex Executor, t Task, targets []BatchTarget, opt SampleOptions) ([]mc.Result, error) {
	opt = opt.withDefaults()
	if ex == nil {
		ex = Local{}
	}
	if len(targets) == 0 {
		return nil, errors.New("exec: SampleBatch requires at least one target")
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	if t.Proc == nil || t.Obs == nil {
		return nil, errors.New("exec: SampleBatch needs the task's process and observer for coordinator-side estimation")
	}
	plan, err := core.NewPlan(t.Boundaries...)
	if err != nil {
		return nil, err
	}
	m := plan.M()
	value := core.ThresholdValue(t.Obs, t.Beta)
	start := t.Start
	if start == nil {
		start = t.Proc.Initial()
	}
	initLevel := plan.LevelOf(value(start, 0))
	if initLevel >= m {
		return nil, errors.New("exec: initial state already satisfies the query")
	}
	for i, tg := range targets {
		if tg.Stop == nil {
			return nil, fmt.Errorf("exec: batch target %d has no stop rule", i)
		}
		if tg.Level <= initLevel || tg.Level > m {
			return nil, fmt.Errorf("exec: batch target level %d outside (%d, %d]", tg.Level, initLevel, m)
		}
	}

	began := telemetry.Now()
	agg := core.NewCounters(m)
	mom := core.NewMoments(m, initLevel)
	results := make([]mc.Result, len(targets))
	next := int64(0)
	var steps, paths int64
	for {
		if err := ctx.Err(); err != nil {
			finishBatch(results, steps, paths, began)
			return results, err
		}
		shard, err := ex.RunRoots(ctx, t, next, next+int64(opt.BatchRoots), 1)
		if err != nil {
			finishBatch(results, steps, paths, began)
			return results, err
		}
		next += int64(opt.BatchRoots)
		mergeBegan := telemetry.Now()
		for _, u := range shard.Groups {
			agg.Add(u)
			mom.Add(u)
		}
		steps += shard.Steps
		paths += shard.Roots
		done := true
		for i, tg := range targets {
			r := &results[i]
			r.Steps = steps
			r.Paths = paths
			r.Hits = int64(core.PrefixCrossings(agg, m, tg.Level))
			r.P = core.EstimatePrefixFromCounters(agg, paths, m, tg.Level, initLevel)
			r.Variance = mom.Variance(tg.Level)
			r.Elapsed = telemetry.Since(began)
			if !tg.Stop.Done(*r) {
				done = false
			}
		}
		opt.Tracer.Observe(telemetry.StageMerge, telemetry.Since(mergeBegan), 0)
		if opt.Trace != nil {
			// One run, one trace: the last target's running result (the
			// serve layer orders targets ascending, so this is the top —
			// hardest — threshold).
			opt.Trace(results[len(results)-1])
		}
		if done {
			if opt.Counters != nil {
				opt.Counters(agg, paths, steps)
			}
			return results, nil
		}
	}
}

// finishBatch stamps shared cost accounting onto partially filled results
// before an early (error) return.
func finishBatch(results []mc.Result, steps, paths int64, began time.Time) {
	for i := range results {
		results[i].Steps = steps
		results[i].Paths = paths
		results[i].Elapsed = telemetry.Since(began)
	}
}
