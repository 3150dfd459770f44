package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/rng"
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
// with a bootstrap variance per prefix. The loop stops when every
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
// is simulated, groups cover fixed windows of GroupRoots roots and merges
// fold in root order — so the per-threshold answers are bit-for-bit
// identical across backends and cluster sizes at equal seed. The loop is
// not Sample's: its rounds, groups and variance schedule are its own.
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
	levels := make([]int, len(targets))
	for i, tg := range targets {
		if tg.Stop == nil {
			return nil, fmt.Errorf("exec: batch target %d has no stop rule", i)
		}
		if tg.Level <= initLevel || tg.Level > m {
			return nil, fmt.Errorf("exec: batch target level %d outside (%d, %d]", tg.Level, initLevel, m)
		}
		levels[i] = tg.Level
	}

	began := telemetry.Now()
	agg := core.NewCounters(m)
	var groups []core.Counters
	results := make([]mc.Result, len(targets))
	// Dedicated resampling stream, disjoint from the root substreams
	// (which count up from zero) and from the samplers' own reserved
	// indices.
	bootSrc := rng.NewStream(t.Seed, 1<<61)
	next := int64(0)
	var steps, paths int64
	for {
		if err := ctx.Err(); err != nil {
			finishBatch(results, steps, paths, began)
			return results, err
		}
		shard, err := ex.RunRoots(ctx, t, next, next+int64(opt.BatchRoots), GroupRoots)
		if err != nil {
			finishBatch(results, steps, paths, began)
			return results, err
		}
		next += int64(opt.BatchRoots)
		mergeBegan := telemetry.Now()
		for _, g := range shard.Groups {
			agg.Add(g)
			groups = append(groups, g)
		}
		steps += shard.Steps
		paths += shard.Roots
		variances := core.BootstrapPrefixVariancesFromGroups(groups, GroupRoots, m, initLevel, levels, BootstrapReps, bootSrc)
		done := true
		for i := range targets {
			r := &results[i]
			r.Steps = steps
			r.Paths = paths
			r.Hits = int64(core.PrefixCrossings(agg, m, levels[i]))
			r.P = core.EstimatePrefixFromCounters(agg, paths, m, levels[i], initLevel)
			r.Variance = variances[i]
			r.Elapsed = telemetry.Since(began)
			if !targets[i].Stop.Done(*r) {
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
