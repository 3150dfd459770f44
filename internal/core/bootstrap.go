package core

import (
	"math"

	"durability/internal/rng"
	"durability/internal/stats"
)

// BootstrapVarianceFromGroups estimates the estimator's variance by
// resampling equal-size root groups with replacement: the paper's
// d-Var(tau_hat_0) of §4.2. rootsPerGroup * len(groups) must equal the
// total number of roots the groups cover. With fewer than two groups the
// variance is unknown; it returns +Inf so quality-based stop rules keep
// sampling rather than stopping blind.
//
// No serving path calls it: they report the delta-method variance of
// Moments. It stays as the oracle Moments is tested against and as the
// cost Figure 9 (experiments.BreakdownFigure) reproduces.
func BootstrapVarianceFromGroups(groups []Counters, rootsPerGroup int64, m, initLevel, reps int, src *rng.Source) float64 {
	n := len(groups)
	if n < 2 {
		return math.Inf(1)
	}
	total := rootsPerGroup * int64(n)
	var acc stats.Accumulator
	k := newResampler(groups, m, initLevel)
	for b := 0; b < reps; b++ {
		acc.Add(EstimateFromCounters(k.draw(src), total, m, initLevel))
	}
	return acc.PopulationVariance()
}

// resampler is the bootstrap kernel (§4.2). It copies only the counters
// Eq. 10 reads — Land, Skip and Mu at levels [initLevel+1, m), then
// Hits — into one contiguous slab of fixed-width rows, so a replicate is
// a run of row sums into one reused accumulator, with no per-replicate
// allocation.
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
// roots start in level initLevel.
func newResampler(groups []Counters, m, initLevel int) resampler {
	lo, hi := initLevel+1, m
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
