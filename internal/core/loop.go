package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"durability/internal/mc"
	"durability/internal/telemetry"
)

// RoundRoots is the estimator loop's default round: the root paths it
// simulates between two evaluations of its stop rules.
const RoundRoots = 128

// RootRange simulates root paths [lo, hi) of a GMLSS sampler's tree
// process and returns them as one Groups entry per root, in root order:
// the ShardResult of RunRootsBy(ctx, lo, hi, 1), or of any execution
// backend's RunRoots(…, 1). On an error it may return the completed
// prefix of the range alongside, which the loop folds before returning.
type RootRange func(ctx context.Context, lo, hi int64) (ShardResult, error)

// Target is one threshold of a g-MLSS run: the plan level its normalized
// value sits at (the boundary index; the top threshold is level M) and
// the stop rule its running prefix result must meet.
type Target struct {
	Level int
	Stop  mc.StopRule
}

// Pool is the mergeable state of a set of g-MLSS root paths: their
// counters and per-root moments, with the roots and simulator steps
// behind them. The estimator loop runs one as its running pool and hands
// each round to its hook as another; a standing query keeps its batches
// as pools and seeds the loop with the merge of the surviving ones.
type Pool struct {
	Counters Counters
	Moments  Moments
	Roots    int64
	Steps    int64
}

// NewPool returns an empty pool for an m-boundary plan whose roots start
// in level initLevel.
func NewPool(m, initLevel int) Pool {
	return Pool{Counters: NewCounters(m), Moments: NewMoments(m, initLevel)}
}

// Merge folds o into p. Both must describe the same plan shape.
func (p *Pool) Merge(o *Pool) {
	p.Counters.Add(o.Counters)
	p.Moments.Merge(&o.Moments)
	p.Roots += o.Roots
	p.Steps += o.Steps
}

// Result evaluates the pool at boundary level: the prefix estimate
// (EstimatePrefixFromCounters; level M is Eq. 10's full estimate), its
// delta-method variance, the crossings observed at the level, and the
// pool's roots and steps. An empty pool's variance is +Inf. The result
// carries no wall time.
func (p *Pool) Result(level int) mc.Result {
	m, initLevel := p.Moments.M, p.Moments.First-1
	return mc.Result{
		P:        EstimatePrefixFromCounters(p.Counters, p.Roots, m, level, initLevel),
		Variance: p.Moments.Variance(level),
		Steps:    p.Steps,
		Paths:    p.Roots,
		Hits:     int64(PrefixCrossings(p.Counters, m, level)),
	}
}

// Run is the one g-MLSS estimator loop, §3.1's "synchronize counters on
// the machines periodically to produce a running estimate". Each round
// simulates the next round root paths through roots, folds their
// per-root units in root order into the round's own pool, merges the
// round into p and evaluates every target on p (Result). It hands the
// round — the hook's to keep — and the results, aligned with targets,
// to onRound when set, and returns once every target's stop rule holds
// on the result it reports. round <= 0 selects RoundRoots.
//
// p may arrive seeded, as a standing query's surviving batches: a seeded
// pool is evaluated before the first round and may need none, while an
// empty pool is never done and always runs one. The loop numbers its own
// roots from 0; a caller continuing an earlier run offsets them in roots.
//
// Because units fold in root order and rounds merge in round order, the
// results are a pure function of the seed pool and the units, whatever
// backend simulated them. On an error from roots, or a range that did not
// return one unit per root, the loop evaluates what it has (the completed
// prefix roots returned, or nothing) and returns the results with the
// error. Every result carries the loop's wall time, Elapsed, and in
// VarTime the part spent folding, merging and evaluating.
//
// The calling goroutine counts as stepping a kernel for the whole loop,
// so the idle CPUs in-process rounds borrow (runLaneChunks) are never
// the ones this loop folds and evaluates on between its rounds.
func (p *Pool) Run(ctx context.Context, roots RootRange, round int, targets []Target, onRound func(round *Pool, res []mc.Result)) ([]mc.Result, error) {
	m, initLevel := p.Moments.M, p.Moments.First-1
	if len(targets) == 0 {
		return nil, errors.New("core: the estimator loop needs at least one target")
	}
	for i, t := range targets {
		if t.Stop == nil {
			return nil, fmt.Errorf("core: target %d has no stop rule", i)
		}
		if t.Level <= initLevel || t.Level > m {
			return nil, fmt.Errorf("core: target level %d outside (%d, %d]", t.Level, initLevel, m)
		}
	}
	if round <= 0 {
		round = RoundRoots
	}
	ctx, release := occupy(ctx)
	defer release()

	start := telemetry.Now()
	res := make([]mc.Result, len(targets))
	var varTime time.Duration
	evaluate := func() (done bool) {
		done = true
		for i, t := range targets {
			res[i] = p.Result(t.Level)
			done = t.Stop.Done(res[i]) && done
		}
		return done
	}
	if p.Roots > 0 && evaluate() {
		return res, nil
	}
	for lo := int64(0); ; {
		shard, err := roots(ctx, lo, lo+int64(round))
		if int64(len(shard.Groups)) != shard.Roots {
			err = fmt.Errorf("core: root range returned %d units for %d roots, want one per root", len(shard.Groups), shard.Roots)
			shard = ShardResult{}
		}
		lo += shard.Roots
		evalStart := telemetry.Now()
		r := NewPool(m, initLevel)
		for _, u := range shard.Groups {
			r.Counters.Add(u)
			r.Moments.Add(u)
		}
		r.Roots, r.Steps = shard.Roots, shard.Steps
		p.Merge(&r)
		done := evaluate()
		varTime += telemetry.Since(evalStart)
		elapsed := telemetry.Since(start)
		for i := range res {
			res[i].Elapsed, res[i].VarTime = elapsed, varTime
		}
		if err != nil {
			return res, err
		}
		if onRound != nil {
			onRound(&r, res)
		}
		if done {
			return res, nil
		}
	}
}
