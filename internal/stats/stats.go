// Package stats provides the estimator-quality machinery shared by every
// sampler: numerically stable moment accumulation (Welford), normal-theory
// confidence intervals, relative error, quantiles and histograms.
//
// The paper evaluates estimates against two quality targets (§6): a 1%-wide
// 95% confidence interval for medium/small queries, and 10% relative error
// for tiny/rare queries. Both reduce to functions of the estimate and its
// variance, which this package computes.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator tracks count, mean and variance of a stream of observations
// using Welford's online algorithm, which is numerically stable for the
// long, small-magnitude streams produced by rare-event sampling.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddN folds the observation x in count times. Useful when observations are
// pre-aggregated (e.g. "k of the N0 root paths scored zero").
func (a *Accumulator) AddN(x float64, count int64) {
	for i := int64(0); i < count; i++ {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 before any observation.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (divisor n-1), or 0 when
// fewer than two observations have been seen.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// PopulationVariance returns the biased (divisor n) variance.
func (a *Accumulator) PopulationVariance() float64 {
	if a.n < 1 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// MeanStdErr returns the standard error of the sample mean.
func (a *Accumulator) MeanStdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.Variance() / float64(a.n))
}

// Merge combines another accumulator into this one, as if every observation
// of other had been Added here. Used to fuse per-worker accumulators.
func (a *Accumulator) Merge(other Accumulator) {
	if other.n == 0 {
		return
	}
	if a.n == 0 {
		*a = other
		return
	}
	n := a.n + other.n
	delta := other.mean - a.mean
	a.m2 += other.m2 + delta*delta*float64(a.n)*float64(other.n)/float64(n)
	a.mean += delta * float64(other.n) / float64(n)
	a.n = n
}

// Reset clears the accumulator.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Width returns the total interval width.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies inside the interval (inclusive).
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

func (iv Interval) String() string { return fmt.Sprintf("[%.6g, %.6g]", iv.Lo, iv.Hi) }

// ZCritical returns the standard-normal critical value z such that
// P(|Z| <= z) = confidence. The paper uses confidence = 0.95 (z ≈ 1.96).
func ZCritical(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic("stats: confidence must be in (0,1)")
	}
	return NormQuantile(0.5 + confidence/2)
}

// NormQuantile returns the p-quantile of the standard normal distribution
// using the Beasley-Springer-Moro rational approximation, accurate to about
// 1e-9 over (0,1) — far tighter than anything the experiments need.
func NormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormQuantile argument must be in (0,1)")
	}
	a := [...]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [...]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [...]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [...]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// NormCDF returns the standard normal CDF at x.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// MeanCI returns a normal-approximation confidence interval for a point
// estimate with the given estimator variance. variance is the variance of
// the *estimator* (already divided by the sample size where applicable).
func MeanCI(estimate, variance, confidence float64) Interval {
	z := ZCritical(confidence)
	half := z * math.Sqrt(math.Max(variance, 0))
	return Interval{Lo: estimate - half, Hi: estimate + half}
}

// RelativeError returns sqrt(variance)/estimate, the paper's RE measure
// (§6, "Relative Error"). It returns +Inf when the estimate is zero, which
// correctly forces samplers to keep going until they have seen a hit.
func RelativeError(estimate, variance float64) float64 {
	if estimate <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(math.Max(variance, 0)) / estimate
}

// Quantile returns the q-quantile of the data using linear interpolation
// between order statistics. The slice is sorted in place.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		panic("stats: Quantile of empty data")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile must be in [0,1]")
	}
	sort.Float64s(data)
	if len(data) == 1 {
		return data[0]
	}
	pos := q * float64(len(data)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return data[lo]
	}
	frac := pos - float64(lo)
	return data[lo]*(1-frac) + data[hi]*frac
}

// Mean returns the arithmetic mean of data, or 0 for empty input.
func Mean(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range data {
		sum += v
	}
	return sum / float64(len(data))
}

// Variance returns the unbiased sample variance of data, or 0 when fewer
// than two values are supplied.
func Variance(data []float64) float64 {
	var acc Accumulator
	for _, v := range data {
		acc.Add(v)
	}
	return acc.Variance()
}

// StdDev returns the unbiased sample standard deviation of data.
func StdDev(data []float64) float64 { return math.Sqrt(Variance(data)) }

// Histogram is a fixed-width bucket histogram over [Lo, Hi). Values outside
// the range are clamped into the first/last bucket, which is the behaviour
// the convergence plots want (outliers still show up at the edges).
type Histogram struct {
	Lo, Hi  float64
	Counts  []int64
	total   int64
	clamped int64
}

// NewHistogram builds a histogram with the given number of buckets.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if buckets <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	if hi <= lo {
		panic("stats: histogram range is empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, buckets)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	idx := int(math.Floor(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo)))
	if idx < 0 {
		idx = 0
		h.clamped++
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
		h.clamped++
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int64 { return h.total }

// Clamped returns how many observations fell outside [Lo, Hi).
func (h *Histogram) Clamped() int64 { return h.clamped }

// BucketCenter returns the midpoint value of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}
