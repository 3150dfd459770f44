package core

import (
	"context"
	"errors"
	"math"

	"durability/internal/rng"
	"durability/internal/stats"
)

// Counters is the exported form of the g-MLSS sufficient statistic, used
// by the distributed runner (internal/cluster) to ship per-shard results
// between machines: slices indexed 1..m-1 as in §4.1, plus target hits.
// It is plain data, so it serialises with encoding/gob.
type Counters struct {
	Land []float64
	Skip []float64
	Mu   []float64
	Hits float64
}

// Add merges another counter set (levels must agree).
func (c *Counters) Add(o Counters) {
	for i := range c.Land {
		c.Land[i] += o.Land[i]
		c.Skip[i] += o.Skip[i]
		c.Mu[i] += o.Mu[i]
	}
	c.Hits += o.Hits
}

// NewCounters allocates zeroed counters for a plan with M() == m.
func NewCounters(m int) Counters {
	return Counters{
		Land: make([]float64, m+1),
		Skip: make([]float64, m+1),
		Mu:   make([]float64, m+1),
	}
}

func (c Counters) toInternal() levelCounters {
	return levelCounters{land: c.Land, skip: c.Skip, mu: c.Mu, hits: c.Hits}
}

func fromInternal(lc levelCounters) Counters {
	return Counters{Land: lc.land, Skip: lc.skip, Mu: lc.mu, Hits: lc.hits}
}

// ShardResult is the outcome of simulating one contiguous range of root
// paths: the aggregate counters, the cost, and the per-group counters the
// coordinator needs for bootstrap variance estimation.
type ShardResult struct {
	Agg    Counters
	Groups []Counters // equal-size batches of roots, for resampling
	Roots  int64
	Steps  int64
}

// RunRootsBy simulates root paths [lo, hi) of the sampler's tree process
// and returns their counters, batched into bootstrap groups of
// rootsPerGroup consecutive root indices (the last group of a range may be
// smaller). It performs no stopping logic — that is the coordinator's job
// in the distributed setting of §3.1 ("synchronize counters on the
// machines periodically to produce a running estimate"). Distributed
// executors shard one logical root range across machines; size-based
// grouping makes the group boundaries — and therefore the order of every
// floating-point merge downstream — identical no matter how the range was
// cut, which is what keeps a sharded run bit-for-bit equal to a
// single-machine run.
func (g *GMLSS) RunRootsBy(ctx context.Context, lo, hi int64, rootsPerGroup int) (ShardResult, error) {
	return g.runRootsBy(ctx, lo, hi, rootsPerGroup, kernelGMLSS)
}

func (g *GMLSS) runRootsBy(ctx context.Context, lo, hi int64, rootsPerGroup int, simulate gmlssSimFunc) (ShardResult, error) {
	if err := g.validate(); err != nil {
		return ShardResult{}, err
	}
	if hi <= lo {
		return ShardResult{}, errors.New("core: empty root range")
	}
	if rootsPerGroup < 1 {
		rootsPerGroup = 1
	}
	m := g.Plan.M()
	proto := g.Proc.Initial()
	initLevel := g.Plan.LevelOf(g.Query.Value(proto, 0))
	if initLevel >= m {
		return ShardResult{}, errors.New("core: initial state already satisfies the query")
	}
	workers := g.Workers
	if workers <= 0 {
		workers = 1
	}
	roots, err := simulate(g, workers, proto, initLevel)(ctx, lo, hi)
	if err != nil {
		return ShardResult{}, err
	}
	out := ShardResult{Agg: NewCounters(m), Roots: int64(len(roots))}
	per := rootsPerGroup
	for gi := 0; gi < len(roots); gi += per {
		group := NewCounters(m)
		end := gi + per
		if end > len(roots) {
			end = len(roots)
		}
		for _, r := range roots[gi:end] {
			group.Add(fromInternal(r.counters))
			out.Steps += r.steps
		}
		out.Agg.Add(group)
		out.Groups = append(out.Groups, group)
	}
	return out, nil
}

// EstimateFromCounters computes the g-MLSS estimator (Eq. 10) from
// aggregated counters over n root paths starting in level initLevel of an
// m-boundary plan.
func EstimateFromCounters(agg Counters, n int64, m, initLevel int) float64 {
	lc := agg.toInternal()
	return lc.estimate(n, m, initLevel)
}

// EstimatePrefixFromCounters computes the g-MLSS estimator truncated at
// level target (initLevel < target <= m): the cumulative level-crossing
// product up to boundary beta_target. It is an unbiased estimate of the
// probability that the value function reaches beta_target within the
// horizon — the same telescoping-conditional argument that makes Eq. 10
// unbiased for the top level applies to every prefix, which is what lets
// one splitting run answer a whole threshold lattice: each intermediate
// threshold is read off as a prefix of the shared counters.
func EstimatePrefixFromCounters(agg Counters, n int64, m, target, initLevel int) float64 {
	if target == m {
		return EstimateFromCounters(agg, n, m, initLevel)
	}
	if n == 0 || target <= initLevel || target > m {
		return 0
	}
	first := initLevel + 1
	// Crossings of the first watched boundary: paths that landed in
	// L_first plus paths that jumped past it (the segment loop books a
	// skip at every level below the landing level, the target included).
	tau := (agg.Land[first] + agg.Skip[first]) / float64(n)
	if tau == 0 {
		return 0
	}
	for i := first; i < target; i++ {
		denom := agg.Land[i] + agg.Skip[i]
		if denom == 0 {
			return 0
		}
		tau *= (agg.Mu[i] + agg.Skip[i]) / denom
	}
	return tau
}

// PrefixCrossings counts the crossing events observed at boundary target:
// the per-level evidence mass behind a prefix estimate, the analog of
// Result.Hits for an intermediate threshold (MinHits-style stop-rule
// guards key off it). For the top level the crossings are the target hits.
func PrefixCrossings(agg Counters, m, target int) float64 {
	if target == m {
		return agg.Hits
	}
	if target < 1 || target > m {
		return 0
	}
	return agg.Land[target] + agg.Skip[target]
}

// BootstrapPrefixVariancesFromGroups estimates the variance of every
// prefix estimator in targets at once by resampling equal-size root groups
// with replacement. Each replicate draws one resampled counter set and
// evaluates all prefixes from it, so the cost is one resampling pass (and
// one PRNG trajectory) regardless of how many thresholds share the run; a
// single-element targets slice consumes exactly the draws
// BootstrapVarianceFromGroups would, keeping batch and single-query
// variance trajectories comparable. rootsPerGroup * len(groups) must equal
// the total number of roots the groups cover.
func BootstrapPrefixVariancesFromGroups(groups []Counters, rootsPerGroup int64, m, initLevel int, targets []int, reps int, src *rng.Source) []float64 {
	out := make([]float64, len(targets))
	n := len(groups)
	if n < 2 {
		for i := range out {
			out[i] = math.Inf(1)
		}
		return out
	}
	total := rootsPerGroup * int64(n)
	accs := make([]stats.Accumulator, len(targets))
	for b := 0; b < reps; b++ {
		resampled := NewCounters(m)
		for i := 0; i < n; i++ {
			resampled.Add(groups[src.Intn(n)])
		}
		for ti, target := range targets {
			accs[ti].Add(EstimatePrefixFromCounters(resampled, total, m, target, initLevel))
		}
	}
	for i := range accs {
		out[i] = accs[i].PopulationVariance()
	}
	return out
}

// BootstrapVarianceFromGroups estimates the estimator's variance by
// resampling equal-size root groups with replacement, as the coordinator
// does after merging shard results. rootsPerGroup * len(groups) must equal
// the total number of roots the groups cover.
func BootstrapVarianceFromGroups(groups []Counters, rootsPerGroup int64, m, initLevel, reps int, src *rng.Source) float64 {
	n := len(groups)
	if n < 2 {
		return math.Inf(1)
	}
	total := rootsPerGroup * int64(n)
	var acc stats.Accumulator
	for b := 0; b < reps; b++ {
		resampled := NewCounters(m)
		for i := 0; i < n; i++ {
			resampled.Add(groups[src.Intn(n)])
		}
		acc.Add(EstimateFromCounters(resampled, total, m, initLevel))
	}
	return acc.PopulationVariance()
}
