package core

import (
	"context"
	"errors"
)

// Counters is the sufficient statistic of a set of root-path trees for
// the g-MLSS estimator (§4.1). All slices are indexed by level 1..m-1
// (index 0 unused):
//
//	Land[i] — |H_i|: paths that landed in L_i for the first time (split states)
//	Skip[i] — n_skip_i: paths that crossed beta_{i+1} without landing in L_i
//	Mu[i]   — sum over h in H_i of mu(h), the fraction of h's offspring
//	          that crossed beta_{i+1}
//
// Hits counts paths reaching the target L_m. Counters is plain data, so
// the distributed runner (internal/cluster) ships per-shard results
// between machines with encoding/gob.
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

// NewCounters allocates zeroed counters for a plan with M() == m, in one
// flat backing array.
func NewCounters(m int) Counters {
	return countersFrom(make([]float64, countersStride(m)), m)
}

// countersStride is the backing length of one Counters for M() == m.
func countersStride(m int) int { return 3 * (m + 1) }

// countersFrom carves Counters out of a caller-owned backing slice of
// length countersStride(m). The subslice capacities are clipped so an
// append on one section can never bleed into the next.
func countersFrom(buf []float64, m int) Counters {
	n := m + 1
	return Counters{
		Land: buf[0*n : 1*n : 1*n],
		Skip: buf[1*n : 2*n : 2*n],
		Mu:   buf[2*n : 3*n : 3*n],
	}
}

// ShardResult is the outcome of simulating one contiguous range of root
// paths: the aggregate counters, the cost, and the per-group counters.
// The estimator paths ask for groups of one root, the per-root units
// their moments (Moments) fold.
type ShardResult struct {
	Agg    Counters
	Groups []Counters // equal-size batches of consecutive roots
	Roots  int64
	Steps  int64
}

// RunRootsBy simulates root paths [lo, hi) of the sampler's tree process
// and returns their counters, batched into groups of rootsPerGroup
// consecutive root indices (the last group of a range may be
// smaller). It performs no stopping logic — that is the coordinator's job
// in the distributed setting of §3.1 ("synchronize counters on the
// machines periodically to produce a running estimate"). Distributed
// executors shard one logical root range across machines; size-based
// grouping makes the group boundaries — and therefore the order of every
// floating-point merge downstream — identical no matter how the range was
// cut, which is what keeps a sharded run bit-for-bit equal to a
// single-machine run. On cancellation it returns the groups of the
// longest contiguous prefix of completed roots with the context's error.
func (g *GMLSS) RunRootsBy(ctx context.Context, lo, hi int64, rootsPerGroup int) (ShardResult, error) {
	return g.runRootsBy(ctx, lo, hi, rootsPerGroup, kernelGMLSS)
}

func (g *GMLSS) runRootsBy(ctx context.Context, lo, hi int64, rootsPerGroup int, simulate gmlssSimFunc) (ShardResult, error) {
	ctx, release := occupy(ctx)
	defer release()
	proto, initLevel, err := g.start()
	if err != nil {
		return ShardResult{}, err
	}
	return groupRoots(ctx, simulate(g, width(g.Workers), proto, initLevel), lo, hi, rootsPerGroup, g.Plan.M())
}

// groupRoots simulates roots [lo, hi) through sim and folds them, in root
// order, into groups of rootsPerGroup. Every group and the aggregate are
// carved from one backing array, so a call allocates O(1) times however
// many roots it covers.
func groupRoots(ctx context.Context, sim rangeFunc[gmlssRoot], lo, hi int64, rootsPerGroup, m int) (ShardResult, error) {
	if hi <= lo {
		return ShardResult{}, errors.New("core: empty root range")
	}
	per := max(rootsPerGroup, 1)
	roots, err := sim(ctx, lo, hi)
	stride := countersStride(m)
	nGroups := (len(roots) + per - 1) / per
	buf := make([]float64, (nGroups+1)*stride)
	out := ShardResult{
		Agg:    countersFrom(buf[:stride], m),
		Groups: make([]Counters, nGroups),
		Roots:  int64(len(roots)),
	}
	for gi := range out.Groups {
		group := countersFrom(buf[(gi+1)*stride:(gi+2)*stride], m)
		for _, r := range roots[gi*per : min((gi+1)*per, len(roots))] {
			group.Add(r.counters)
			out.Steps += r.steps
		}
		out.Agg.Add(group)
		out.Groups[gi] = group
	}
	return out, err
}

// EstimateFromCounters computes the g-MLSS estimator (Eq. 10) from
// aggregated counters over n root paths starting in level initLevel of an
// m-boundary plan.
func EstimateFromCounters(agg Counters, n int64, m, initLevel int) float64 {
	return agg.estimate(n, m, initLevel)
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
	if n == 0 || target <= initLevel || target > m {
		return 0
	}
	first := initLevel + 1
	if first == m {
		// No boundary below the target: crossing beta_m is a hit, and the
		// estimator degenerates to the SRS form hits/n.
		return agg.Hits / float64(n)
	}
	// Crossings of the first watched boundary: paths that landed in
	// L_first plus paths that jumped past it (the segment loop books a
	// skip at every level below the landing level, the target included).
	// Each further level multiplies in its advancement ratio
	// (Mu[i] + Skip[i]) / (Land[i] + Skip[i]); any level with zero
	// crossers makes the estimate zero.
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
