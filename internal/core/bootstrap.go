package core

import (
	"math"

	"durability/internal/rng"
	"durability/internal/stats"
)

// maxBootstrapGroups bounds the number of resampling units kept in memory.
// When more root paths arrive than this, adjacent groups are merged and
// each unit comes to represent several roots ("batch means"); bootstrap
// over iid groups of equal size remains a consistent variance estimator
// while memory and per-replicate cost stay bounded.
const maxBootstrapGroups = 4096

// rootPool holds per-root (or per-group) g-MLSS counters for bootstrap
// variance evaluation (§4.2).
type rootPool struct {
	groups    []Counters
	current   Counters
	inCurrent int
	groupSize int
	m         int
}

func newRootPool(m int) *rootPool {
	return &rootPool{current: NewCounters(m), groupSize: 1, m: m}
}

// push adds one root path's counters to the pool.
func (p *rootPool) push(c Counters) {
	p.current.Add(c)
	p.inCurrent++
	if p.inCurrent < p.groupSize {
		return
	}
	p.groups = append(p.groups, p.current)
	p.current = NewCounters(p.m)
	p.inCurrent = 0
	if len(p.groups) >= maxBootstrapGroups {
		merged := make([]Counters, 0, len(p.groups)/2)
		for i := 0; i+1 < len(p.groups); i += 2 {
			g := p.groups[i]
			g.Add(p.groups[i+1])
			merged = append(merged, g)
		}
		p.groups = merged
		p.groupSize *= 2
	}
}

// roots returns the number of root paths fully represented in groups.
func (p *rootPool) roots() int64 {
	return int64(len(p.groups)) * int64(p.groupSize)
}

// bootstrapVariance is the pool's bootstrap variance (the paper's
// d-Var(tau_hat_0), §4.2): BootstrapVarianceFromGroups over the pool's
// groups, each standing for groupSize roots.
func (p *rootPool) bootstrapVariance(reps, m, initLevel int, src *rng.Source) float64 {
	return BootstrapVarianceFromGroups(p.groups, int64(p.groupSize), m, initLevel, reps, src)
}

// BootstrapVarianceFromGroups estimates the estimator's variance by
// resampling equal-size root groups with replacement, as the coordinator
// does after merging shard results. rootsPerGroup * len(groups) must equal
// the total number of roots the groups cover. With fewer than two groups
// the variance is unknown; it returns +Inf so quality-based stop rules
// keep sampling rather than stopping blind.
func BootstrapVarianceFromGroups(groups []Counters, rootsPerGroup int64, m, initLevel, reps int, src *rng.Source) float64 {
	return BootstrapPrefixVariancesFromGroups(groups, rootsPerGroup, m, initLevel, []int{m}, reps, src)[0]
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
	k := newResampler(groups, m, initLevel, targets)
	for b := 0; b < reps; b++ {
		resampled := k.draw(src)
		for ti, target := range targets {
			accs[ti].Add(EstimatePrefixFromCounters(resampled, total, m, target, initLevel))
		}
	}
	for i := range accs {
		out[i] = accs[i].PopulationVariance()
	}
	return out
}

// resampler is the bootstrap kernel (§4.2) behind every variance path. It
// copies only the counters the prefix estimators over targets read —
// Land, Skip and Mu at levels [lo, hi), then Hits — into one contiguous
// slab of fixed-width rows, so a replicate is a run of row sums into one
// reused accumulator, with no per-replicate allocation.
//
// A draw must stay bit-for-bit equal to merging the drawn groups with
// Counters.Add (the oracle in bootstrap_reference_test.go): Intn is
// called once per row in order, and each field is summed from zero in
// draw order, so every floating-point sum happens in the same order.
type resampler struct {
	slab   []float64 // one row per group, each len(sum) wide
	sum    []float64 // the current replicate's row sums
	out    Counters  // sum scattered back into the estimator's layout
	lo, hi int
}

// newResampler builds the slab for groups of an m-boundary plan whose
// roots start in level initLevel. The estimators read levels from
// first = initLevel+1 up to the target (exclusive) and always level
// first itself; a top-level target reads every level below m, or only
// Hits when first == m.
func newResampler(groups []Counters, m, initLevel int, targets []int) resampler {
	lo, hi := initLevel+1, initLevel+1
	for _, t := range targets {
		switch {
		case t == m:
			hi = max(hi, m)
		case t > initLevel && t < m:
			hi = max(hi, t, lo+1)
		}
	}
	width := 3*(hi-lo) + 1
	n := len(groups)
	buf := make([]float64, (n+1)*width+countersStride(m))
	k := resampler{
		slab: buf[: n*width : n*width],
		sum:  buf[n*width : (n+1)*width : (n+1)*width],
		out:  countersFrom(buf[(n+1)*width:], m),
		lo:   lo,
		hi:   hi,
	}
	for gi := range groups {
		g := &groups[gi]
		row := k.slab[gi*width : (gi+1)*width]
		j := 0
		for l := lo; l < hi; l++ {
			row[j], row[j+1], row[j+2] = g.Land[l], g.Skip[l], g.Mu[l]
			j += 3
		}
		row[j] = g.Hits
	}
	return k
}

// draw resamples len(groups) rows with replacement and returns their sums
// in Counters form. The result is overwritten by the next draw.
func (k *resampler) draw(src *rng.Source) Counters {
	sum := k.sum
	clear(sum)
	width := len(sum)
	n := len(k.slab) / width
	for range n {
		row := k.slab[src.Intn(n)*width:]
		row = row[:width]
		for j := range sum {
			sum[j] += row[j]
		}
	}
	j := 0
	for l := k.lo; l < k.hi; l++ {
		k.out.Land[l], k.out.Skip[l], k.out.Mu[l] = sum[j], sum[j+1], sum[j+2]
		j += 3
	}
	k.out.Hits = sum[j]
	return k.out
}
