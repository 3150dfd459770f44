package core

import (
	"context"
	"errors"
	"fmt"

	"durability/internal/mc"
	"durability/internal/rng"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

// levelCounters is the sufficient statistic of a set of root-path trees
// for the g-MLSS estimator (§4.1). All slices are indexed by level
// 1..m-1 (index 0 unused):
//
//	land[i]  — |H_i|: paths that landed in L_i for the first time (split states)
//	skip[i]  — n_skip_i: paths that crossed beta_{i+1} without landing in L_i
//	mu[i]    — sum over h in H_i of mu(h), the fraction of h's offspring
//	           that crossed beta_{i+1}
//
// hits counts paths reaching the target L_m.
type levelCounters struct {
	land []float64
	skip []float64
	mu   []float64
	// muSq accumulates, per level, the sum of squared per-split crossing
	// fractions — the second moment the closed-form two-level variance
	// (Eq. 11) needs for Var(N_2^<1>).
	muSq []float64
	hits float64
}

// newLevelCounters allocates counters in one flat backing array; the
// batch drivers go further and carve many roots' counters out of a
// pooled arena (see counterArena).
func newLevelCounters(m int) levelCounters {
	return countersFrom(make([]float64, 4*(m+1)), m)
}

// countersFrom carves a levelCounters out of a caller-owned backing
// slice of length 4*(m+1). The subslice capacities are clipped so an
// append on one section can never bleed into the next.
func countersFrom(buf []float64, m int) levelCounters {
	n := m + 1
	return levelCounters{
		land: buf[0*n : 1*n : 1*n],
		skip: buf[1*n : 2*n : 2*n],
		mu:   buf[2*n : 3*n : 3*n],
		muSq: buf[3*n : 4*n : 4*n],
	}
}

func (c *levelCounters) add(o levelCounters) {
	for i := range c.land {
		c.land[i] += o.land[i]
		c.skip[i] += o.skip[i]
		c.mu[i] += o.mu[i]
		c.muSq[i] += o.muSq[i]
	}
	c.hits += o.hits
}

// estimate computes the g-MLSS estimator (Eq. 10) from aggregate counters
// over n root paths whose initial state sits in level initLevel:
//
//	pi_hat_{first} = (land[first] + skip[first]) / n
//	pi_hat_{i+1}   = (mu[i] + skip[i]) / (land[i] + skip[i])
//
// Any level with zero crossers makes the estimate zero.
func (c *levelCounters) estimate(n int64, m, initLevel int) float64 {
	if n == 0 {
		return 0
	}
	first := initLevel + 1
	if first == m {
		// No boundary below the target: crossing beta_m is a hit, and the
		// estimator degenerates to the SRS form hits/n.
		return c.hits / float64(n)
	}
	cross := c.land[first] + c.skip[first]
	tau := cross / float64(n)
	if tau == 0 {
		return 0
	}
	for i := first; i < m; i++ {
		denom := c.land[i] + c.skip[i]
		if denom == 0 {
			return 0
		}
		tau *= (c.mu[i] + c.skip[i]) / denom
	}
	return tau
}

// GMLSS is the general Multi-Level Splitting sampler of §4. Unlike SMLSS
// it watches every boundary above the path's current level, so jumps that
// skip levels are accounted exactly: skipped levels contribute to n_skip
// and the per-split advancement ratios mu(h) replace the uniform-ratio
// bookkeeping. The estimator (Eq. 10) is unbiased for arbitrary processes.
//
// No closed-form variance exists in general (§4.2); Run estimates the
// variance by bootstrap resampling of root-path statistics, and the
// Result's VarTime field reports how much time that evaluation consumed —
// the quantity Figure 9 of the paper breaks out.
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
	Stop   mc.StopRule
	Seed   uint64

	Workers int             // parallel workers (default 1)
	Batch   int             // root paths between stop-rule checks (default 128)
	Trace   func(mc.Result) // optional per-batch progress callback

	// BootstrapReps is the number of bootstrap replicates used for each
	// variance evaluation (default 200).
	BootstrapReps int
	// VarEvery controls the conservative evaluation schedule (§4.2): a
	// bootstrap evaluation runs only when total steps have grown by this
	// factor since the last one (default 1.3).
	VarEvery float64
	// ForceBootstrap disables the closed-form two-level variance (Eq. 11)
	// even when the plan has exactly two levels, so the bootstrap path can
	// be exercised and compared (ablation).
	ForceBootstrap bool

	// Observe, when non-nil, receives the run's finalized aggregate
	// counters (root paths and simulator steps alongside) exactly once,
	// at a successful return. Observability only: the callback sees a
	// copy-safe view after the estimate is computed and must not be used
	// to influence the run.
	Observe func(agg Counters, roots, steps int64)
}

// gmlssRoot is one root tree's counters plus its simulation cost.
type gmlssRoot struct {
	counters levelCounters
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
	if g.Stop == nil {
		return errors.New("core: GMLSS requires a stop rule")
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

// Run executes the sampler until the stop rule fires or the context is
// cancelled.
func (g *GMLSS) Run(ctx context.Context) (mc.Result, error) {
	return g.run(ctx, kernelGMLSS)
}

func (g *GMLSS) run(ctx context.Context, simulate gmlssSimFunc) (mc.Result, error) {
	if err := g.validate(); err != nil {
		return mc.Result{}, err
	}
	workers := g.Workers
	if workers <= 0 {
		workers = 1
	}
	batch := g.Batch
	if batch <= 0 {
		batch = 128
	}
	reps := g.BootstrapReps
	if reps <= 0 {
		reps = 200
	}
	varEvery := g.VarEvery
	if varEvery <= 1 {
		varEvery = 1.3
	}
	m := g.Plan.M()
	proto := g.Proc.Initial()
	initLevel := g.Plan.LevelOf(g.Query.Value(proto, 0))
	if initLevel >= m {
		return mc.Result{}, errors.New("core: initial state already satisfies the query")
	}
	runRange := simulate(g, workers, proto, initLevel)

	start := telemetry.Now()
	var res mc.Result
	agg := newLevelCounters(m)
	pool := newRootPool(m)
	bootSrc := rng.NewStream(g.Seed, 1<<63) // dedicated stream for resampling
	var nextVarAt int64
	for {
		lo, hi := res.Paths, res.Paths+int64(batch)
		roots, err := runRange(ctx, lo, hi)
		for _, r := range roots {
			res.Steps += r.steps
			agg.add(r.counters)
			pool.push(r.counters)
		}
		res.Paths += int64(len(roots))
		res.Hits = int64(agg.hits)
		res.P = agg.estimate(res.Paths, m, initLevel)
		if err != nil {
			res.Elapsed = telemetry.Since(start)
			return res, err
		}

		// Variance evaluation. The two-level case has the closed form of
		// Eq. 11 and costs nothing; otherwise bootstrap on a conservative
		// schedule — evaluating on every batch would dominate total cost
		// (§4.2), so re-evaluate only after the simulation has grown by
		// varEvery.
		if v, ok := twoLevelVariance(agg, res.Paths, m, initLevel); ok && !g.ForceBootstrap {
			res.Variance = v
		} else if res.Steps >= nextVarAt {
			varStart := telemetry.Now()
			res.Variance = pool.bootstrapVariance(reps, m, initLevel, bootSrc)
			res.VarTime += telemetry.Since(varStart)
			nextVarAt = int64(float64(res.Steps) * varEvery)
		}
		res.Elapsed = telemetry.Since(start)
		if g.Trace != nil {
			g.Trace(res)
		}
		if g.Stop.Done(res) {
			if _, ok := twoLevelVariance(agg, res.Paths, m, initLevel); !ok || g.ForceBootstrap {
				// Refresh the bootstrap so the returned quality is current.
				varStart := telemetry.Now()
				res.Variance = pool.bootstrapVariance(reps, m, initLevel, bootSrc)
				res.VarTime += telemetry.Since(varStart)
			}
			res.Elapsed = telemetry.Since(start)
			if g.Observe != nil {
				g.Observe(fromInternal(agg), res.Paths, res.Steps)
			}
			return res, nil
		}
	}
}
