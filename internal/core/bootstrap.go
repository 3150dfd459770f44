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

// bootstrapVariance draws reps bootstrap replicates — each resamples the
// group pool with replacement and recomputes the g-MLSS estimate — and
// returns their empirical variance (the paper's d-Var(tau_hat_0), §4.2).
// With fewer than two groups the variance is unknown; it returns +Inf so
// quality-based stop rules keep sampling rather than stopping blind.
func (p *rootPool) bootstrapVariance(reps, m, initLevel int, src *rng.Source) float64 {
	n := len(p.groups)
	if n < 2 {
		return math.Inf(1)
	}
	nRoots := p.roots()
	var acc stats.Accumulator
	resampled := NewCounters(m)
	for b := 0; b < reps; b++ {
		for i := range resampled.Land {
			resampled.Land[i] = 0
			resampled.Skip[i] = 0
			resampled.Mu[i] = 0
		}
		resampled.Hits = 0
		for i := 0; i < n; i++ {
			resampled.Add(p.groups[src.Intn(n)])
		}
		acc.Add(resampled.estimate(nRoots, m, initLevel))
	}
	return acc.PopulationVariance()
}
