package core

import (
	"fmt"
	"math"
	"testing"

	"durability/internal/rng"
	"durability/internal/stats"
)

// The reference bootstrap loops: the Counters.Add resampling loops the
// slab kernel (resampler) replaced, kept as oracles. Each allocates a
// full Counters per replicate and merges whole groups into it. The kernel
// must return the same bits and leave the resampling Source in the same
// state; the prefix loop is also the bootstrap oracle of Moments'
// prefix variances (moments_test.go).

// referencePrefixVariances bootstraps every prefix estimator in targets
// from one resampling pass.
func referencePrefixVariances(groups []Counters, rootsPerGroup int64, m, initLevel int, targets []int, reps int, src *rng.Source) []float64 {
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

// referenceVariance is BootstrapVarianceFromGroups' old loop.
func referenceVariance(groups []Counters, rootsPerGroup int64, m, initLevel, reps int, src *rng.Source) float64 {
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

// oracleGroups draws n random counter sets for an m-boundary plan. Mu and
// the occasional fractional count make every sum order-sensitive, and a
// sprinkling of empty levels exercises the estimators' zero branches.
func oracleGroups(src *rng.Source, n, m int) []Counters {
	groups := make([]Counters, n)
	for i := range groups {
		c := NewCounters(m)
		for l := range c.Land {
			if src.Intn(5) == 0 {
				continue
			}
			c.Land[l] = float64(src.Intn(16)) + src.Float64()*1e-3
			c.Skip[l] = float64(src.Intn(3))
			c.Mu[l] = c.Land[l] * src.Float64()
		}
		c.Hits = float64(src.Intn(4)) + src.Float64()
		groups[i] = c
	}
	return groups
}

// sameBits fails unless got and want are bit-for-bit equal.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d variances, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: variance[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameState fails unless two Sources that started equal have consumed the
// same draws.
func sameState(t *testing.T, what string, got, want *rng.Source) {
	t.Helper()
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("%s: resampling Source diverged from the reference (next draw %#x vs %#x)", what, g, w)
	}
}

func TestBootstrapKernelMatchesReference(t *testing.T) {
	for m := 1; m <= 6; m++ {
		for initLevel := 0; initLevel < m; initLevel++ {
			for _, n := range []int{0, 1, 2, 3, 1000} {
				groups := oracleGroups(rng.New(uint64(1000*m+100*initLevel+n)), n, m)
				for _, reps := range []int{1, 2, 200} {
					name := fmt.Sprintf("m=%d/init=%d/n=%d/reps=%d", m, initLevel, n, reps)
					seed := rng.NewStream(uint64(m*n+reps), uint64(initLevel))
					got, want := *seed, *seed
					sameBits(t, name,
						[]float64{BootstrapVarianceFromGroups(groups, 16, m, initLevel, reps, &got)},
						[]float64{referenceVariance(groups, 16, m, initLevel, reps, &want)})
					sameState(t, name, &got, &want)
				}
			}
		}
	}
}

// The kernel's buffers are allocated once per evaluation, not once per
// replicate: 200 replicates cost what one does.
func TestBootstrapAllocsIndependentOfReps(t *testing.T) {
	const m = 4
	groups := oracleGroups(rng.New(3), 500, m)
	src := rng.New(4)
	one := testing.AllocsPerRun(20, func() { BootstrapVarianceFromGroups(groups, 16, m, 0, 1, src) })
	many := testing.AllocsPerRun(20, func() { BootstrapVarianceFromGroups(groups, 16, m, 0, 200, src) })
	if one != many || many > 3 {
		t.Errorf("%v allocs at 1 replicate, %v at 200; want equal and at most 3", one, many)
	}
}
