package core

import (
	"context"
	"errors"
	"fmt"

	"durability/internal/mc"
	"durability/internal/stochastic"
)

// estimate computes the g-MLSS estimator (Eq. 10) from aggregate counters
// over n root paths whose initial state sits in level initLevel: the
// prefix estimator at the top boundary.
func (c *Counters) estimate(n int64, m, initLevel int) float64 {
	return EstimatePrefixFromCounters(*c, n, m, m, initLevel)
}

// GMLSS is the general Multi-Level Splitting sampler of §4. Unlike SMLSS
// it watches every boundary above the path's current level, so jumps that
// skip levels are accounted exactly: skipped levels contribute to n_skip
// and the per-split advancement ratios mu(h) replace the uniform-ratio
// bookkeeping. The estimator (Eq. 10) is unbiased for arbitrary processes.
//
// No closed-form variance exists in general (§4.2), where the paper
// bootstraps on a conservative schedule. Run instead reports the
// delta-method variance of mergeable per-root moments (Moments), cheap
// enough to evaluate every round, on every plan: on a two-level plan it
// is the exact sample variance of the iid per-root estimate, which
// Eq. 11's closed form overstates by the landing/skip covariance. The
// Result's VarTime field reports how much time folding and variance
// evaluation consumed — the quantity Figure 9 of the paper breaks out.
type GMLSS struct {
	Proc  stochastic.Process
	Query Query
	Plan  Plan
	Ratio int // splitting ratio r used at every split
	// Ratios optionally overrides Ratio per landing level: Ratios[i] is
	// the number of offspring for splits in level L_{i+1} (the first
	// splittable level). g-MLSS's estimator uses per-split advancement
	// *fractions*, so variable ratios stay unbiased (§4.1: "the flexible
	// splitting procedure opens up many interesting opportunities ...
	// how to optimally allocate splitting ratios"). Rarer, higher levels
	// typically warrant larger ratios.
	Ratios []int
	Stop   mc.StopRule // required by Run and RunOn
	Seed   uint64

	// Start, when set, is the state every root path starts from in place
	// of Proc.Initial(): a live-state snapshot, as a standing query's
	// refresh simulates futures of. Simulation only reads it, so the
	// caller must not change it while a call runs.
	Start stochastic.State

	Workers int             // ceiling on the kernels a round steps at once (<= 0: GOMAXPROCS)
	Batch   int             // root paths between stop-rule checks (default RoundRoots)
	Trace   func(mc.Result) // optional per-batch progress callback

	// Observe, when non-nil, receives the run's finalized aggregate
	// counters (root paths and simulator steps alongside) exactly once,
	// at a successful return. Observability only: the callback sees a
	// copy-safe view after the estimate is computed and must not be used
	// to influence the run.
	Observe func(agg Counters, roots, steps int64)
}

// gmlssRoot is one root tree's counters plus its simulation cost.
type gmlssRoot struct {
	counters Counters
	steps    int64
}

func (g *GMLSS) validate() error {
	if err := g.Query.Validate(); err != nil {
		return err
	}
	if g.Ratio < 1 {
		return fmt.Errorf("core: splitting ratio %d must be >= 1", g.Ratio)
	}
	if g.Ratios != nil {
		if len(g.Ratios) != g.Plan.M()-1 {
			return fmt.Errorf("core: %d per-level ratios for %d splittable levels", len(g.Ratios), g.Plan.M()-1)
		}
		for i, r := range g.Ratios {
			if r < 1 {
				return fmt.Errorf("core: per-level ratio %d at level %d must be >= 1", r, i+1)
			}
		}
	}
	return nil
}

// ratioAt returns the offspring count for splits landing in level j.
func (g *GMLSS) ratioAt(j int) int {
	if g.Ratios != nil {
		return g.Ratios[j-1]
	}
	return g.Ratio
}

// start validates the sampler and places its start state in the plan:
// Start, or the one Proc.Initial call of every entry point (expensive
// initializers — neural warmup replay — run once per call, not once per
// root).
func (g *GMLSS) start() (proto stochastic.State, initLevel int, err error) {
	if err := g.validate(); err != nil {
		return nil, 0, err
	}
	proto = g.Start
	if proto == nil {
		proto = g.Proc.Initial()
	}
	initLevel = g.Plan.LevelOf(g.Query.ValueOf(proto))
	if initLevel >= g.Plan.M() {
		return nil, 0, errors.New("core: initial state already satisfies the query")
	}
	return proto, initLevel, nil
}

// Run executes the sampler until the stop rule fires or the context is
// cancelled. It is RunOn over FoldRoots, with one workspace held for the
// whole run.
func (g *GMLSS) Run(ctx context.Context) (mc.Result, error) {
	return g.run(ctx, kernelGMLSS)
}

func (g *GMLSS) run(ctx context.Context, simulate gmlssSimFunc) (mc.Result, error) {
	proto, initLevel, err := g.start()
	if err != nil {
		return mc.Result{}, err
	}
	sim := simulate(g, width(g.Workers), proto, initLevel)
	defer sim.release()
	return top(g.loop(ctx, initLevel, func(ctx context.Context, lo, hi int64, into *Pool) error {
		return foldPool(ctx, sim, lo, hi, into)
	}, []Target{{Level: g.Plan.M(), Stop: g.Stop}}))
}

// RunOn executes the sampler's estimator loop over root paths simulated
// by roots — in-process, or on whatever machines an execution backend
// places them — until the stop rule fires or the context is cancelled.
// Root path i draws from substream i of the seed wherever it runs, so
// the result is bit-for-bit Run's whenever roots folds what FoldRoots
// would.
func (g *GMLSS) RunOn(ctx context.Context, roots RootRange) (mc.Result, error) {
	return top(g.RunTargetsOn(ctx, roots, []Target{{Level: g.Plan.M(), Stop: g.Stop}}))
}

// RunTargetsOn is RunOn for a threshold ladder: one shared run, read off
// at every target's level and stopped once every target's rule holds.
// The results align with targets; Stop is not consulted, and Trace sees
// the last target's result.
func (g *GMLSS) RunTargetsOn(ctx context.Context, roots RootRange, targets []Target) ([]mc.Result, error) {
	_, initLevel, err := g.start()
	if err != nil {
		return nil, err
	}
	return g.loop(ctx, initLevel, roots, targets)
}

// loop runs the estimator loop (Pool.Run) from an empty pool in rounds
// of Batch roots.
func (g *GMLSS) loop(ctx context.Context, initLevel int, roots RootRange, targets []Target) ([]mc.Result, error) {
	pool := NewPool(g.Plan.M(), initLevel)
	res, err := pool.Run(ctx, roots, g.Batch, targets, func(_ *Pool, res []mc.Result) {
		if g.Trace != nil {
			g.Trace(res[len(res)-1])
		}
	})
	if err == nil && g.Observe != nil {
		g.Observe(pool.Counters, pool.Roots, pool.Steps)
	}
	return res, err
}

// top unwraps a one-target run.
func top(res []mc.Result, err error) (mc.Result, error) {
	if len(res) == 0 {
		return mc.Result{}, err
	}
	return res[0], err
}
