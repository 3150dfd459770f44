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
// process and folds each, in root order, into into — an empty pool of
// the loop's shape — adding their roots and steps: GMLSS.FoldRoots in
// process, or Pool.FoldUnits over any execution backend's
// RunRoots(…, 1). On an error it may leave the completed prefix of the
// range folded, which the loop merges before returning.
type RootRange func(ctx context.Context, lo, hi int64, into *Pool) error

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
// in level initLevel. Its counters and moments share one backing array:
// one allocation per pool.
func NewPool(m, initLevel int) Pool {
	return NewPoolOn(nil, m, initLevel)
}

// NewPoolOn is NewPool carving its backing array from *scratch, which it
// grows (or, when scratch is nil, allocates) as the shape needs. A caller
// that builds a short-lived pool per call — a standing query's seed pool,
// one per refresh — keeps one scratch across calls; the pool aliases it
// until the next.
func NewPoolOn(scratch *[]float64, m, initLevel int) Pool {
	need := poolLen(m, initLevel)
	var buf []float64
	switch {
	case scratch == nil:
		buf = make([]float64, need)
	case cap(*scratch) < need:
		buf = make([]float64, need)
		*scratch = buf
	default:
		buf = (*scratch)[:need]
		clear(buf)
	}
	return poolOn(buf, m, initLevel)
}

// poolLen is the backing length of an m-boundary pool whose roots start
// in level initLevel: its counters, then the moment mean and co-moments.
func poolLen(m, initLevel int) int {
	d := momentsDim(m, initLevel)
	return countersStride(m) + d + d*(d+1)/2
}

// poolOn carves a pool's counters and moments out of buf, of length
// poolLen(m, initLevel), leaving buf's contents as they are. The pool's
// Hits, N, Roots and Steps start at zero.
func poolOn(buf []float64, m, initLevel int) Pool {
	cs, d, n := countersStride(m), momentsDim(m, initLevel), len(buf)
	return Pool{
		Counters: countersFrom(buf[:cs:cs], m),
		Moments:  Moments{M: m, First: initLevel + 1, Mean: buf[cs : cs+d : cs+d], Co: buf[cs+d : n : n]},
	}
}

// PackedPool is a Pool at rest: its counters and moments in one exactly
// sized array, with the hits, root count and shape beside it — one
// pointer where a Pool holds five slice headers, so the collector scans
// less for every pool kept. A standing query keeps its batches packed.
type PackedPool struct {
	buf          []float64 // poolOn's layout
	hits         float64
	n            int64 // Moments.N
	m, first     int
	Roots, Steps int64
}

// Pack copies p into a PackedPool. It fails when p's counters or moments
// do not have the shape p.Moments names — a pool decoded from a snapshot
// or a journal can disagree, one NewPool built cannot.
func Pack(p Pool) (PackedPool, error) {
	m, first := p.Moments.M, p.Moments.First
	if first < 1 || first > m {
		return PackedPool{}, fmt.Errorf("core: packing a pool of shape (m %d, first %d)", m, first)
	}
	buf := make([]float64, poolLen(m, first-1))
	q := poolOn(buf, m, first-1)
	if len(p.Counters.Land) != len(q.Counters.Land) || len(p.Counters.Skip) != len(q.Counters.Skip) || len(p.Counters.Mu) != len(q.Counters.Mu) ||
		len(p.Moments.Mean) != len(q.Moments.Mean) || len(p.Moments.Co) != len(q.Moments.Co) {
		return PackedPool{}, fmt.Errorf("core: packing a pool whose counters or moments do not have the shape (m %d, first %d)", m, first)
	}
	copy(q.Counters.Land, p.Counters.Land)
	copy(q.Counters.Skip, p.Counters.Skip)
	copy(q.Counters.Mu, p.Counters.Mu)
	copy(q.Moments.Mean, p.Moments.Mean)
	copy(q.Moments.Co, p.Moments.Co)
	return PackedPool{buf: buf, hits: p.Counters.Hits, n: p.Moments.N, m: m, first: first, Roots: p.Roots, Steps: p.Steps}, nil
}

// Pool returns p as a Pool whose slices alias p's array: merging it into
// another pool reads p in place. The view must not be changed.
func (p *PackedPool) Pool() Pool {
	q := poolOn(p.buf, p.m, p.first-1)
	q.Counters.Hits, q.Moments.N = p.hits, p.n
	q.Roots, q.Steps = p.Roots, p.Steps
	return q
}

// Reset empties p, keeping its shape and buffers.
func (p *Pool) Reset() {
	c := &p.Counters
	clear(c.Land)
	clear(c.Skip)
	clear(c.Mu)
	c.Hits = 0
	p.Moments.Reset(p.Moments.M, p.Moments.First-1)
	p.Roots, p.Steps = 0, 0
}

// addRoot folds one root path's counters into p: the one per-root fold
// every backend's roots go through, in root order.
func (p *Pool) addRoot(u Counters) {
	p.Counters.Add(u)
	p.Moments.Add(u)
}

// FoldUnits folds a range's per-root units — a ShardResult holding one
// Groups entry per root, as exec.Cluster's workers ship them — into p in
// root order, adding the range's roots and steps. A result that is not
// one unit per root folds nothing and is an error.
func (p *Pool) FoldUnits(shard ShardResult) error {
	if int64(len(shard.Groups)) != shard.Roots {
		return fmt.Errorf("core: root range returned %d units for %d roots, want one per root", len(shard.Groups), shard.Roots)
	}
	for _, u := range shard.Groups {
		p.addRoot(u)
	}
	p.Roots += shard.Roots
	p.Steps += shard.Steps
	return nil
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
// has roots fold the next round root paths, in root order, into the
// round's own pool, merges the round into p and evaluates every target
// on p (Result). It hands the round — the hook's to keep — and the
// results, aligned with targets, to onRound when set, and returns once
// every target's stop rule holds on the result it reports. round <= 0
// selects RoundRoots.
//
// p may arrive seeded, as a standing query's surviving batches: a seeded
// pool is evaluated before the first round and may need none, while an
// empty pool is never done and always runs one. The loop numbers its own
// roots from 0; a caller continuing an earlier run offsets them in roots.
//
// Because roots fold in root order and rounds merge in round order, the
// results are a pure function of the seed pool and the roots, whatever
// backend simulated them. On an error from roots the loop evaluates what
// it has (the completed prefix roots folded, or nothing) and returns the
// results with the error. Every result carries the loop's wall time,
// Elapsed, and in VarTime the part spent merging and evaluating.
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
		r := NewPool(m, initLevel)
		err := roots(ctx, lo, lo+int64(round), &r)
		lo += r.Roots
		evalStart := telemetry.Now()
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
