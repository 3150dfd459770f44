package core

import (
	"fmt"
	"math"
	"testing"

	"durability/internal/rng"
	"durability/internal/stats"
)

// The reference bootstrap loops: the three Counters.Add resampling loops
// the slab kernel (resampler) replaced, kept verbatim as an oracle. Each
// allocates or re-zeroes a full Counters per replicate and merges whole
// groups into it. The kernel must return the same bits and leave the
// resampling Source in the same state.

// referenceBootstrapVariance is rootPool.bootstrapVariance's old loop.
func (p *rootPool) referenceBootstrapVariance(reps, m, initLevel int, src *rng.Source) float64 {
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

// referencePrefixVariances is BootstrapPrefixVariancesFromGroups' old loop.
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

// oracleTargets lists prefix target sets for an m-boundary plan starting
// in level initLevel: the first watched boundary alone (it still reads
// that level's Land and Skip), the top level alone, targets at or below
// the start level, and unsorted sets with duplicates.
func oracleTargets(m, initLevel int) [][]int {
	first := initLevel + 1
	sets := [][]int{{first}, {m}, {initLevel}, {0, m}}
	mixed := []int{m, m + 1}
	for tgt := m - 1; tgt >= 0; tgt-- {
		mixed = append(mixed, tgt, first)
	}
	sets = append(sets, mixed)
	if first < m {
		sets = append(sets, []int{first + (m-first)/2, first, first + (m-first)/2})
	}
	return sets
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
					sameBits(t, name+"/single",
						[]float64{BootstrapVarianceFromGroups(groups, 16, m, initLevel, reps, &got)},
						[]float64{referenceVariance(groups, 16, m, initLevel, reps, &want)})
					sameState(t, name+"/single", &got, &want)

					for _, targets := range oracleTargets(m, initLevel) {
						what := fmt.Sprintf("%s/prefix%v", name, targets)
						got, want := *seed, *seed
						sameBits(t, what,
							BootstrapPrefixVariancesFromGroups(groups, 16, m, initLevel, targets, reps, &got),
							referencePrefixVariances(groups, 16, m, initLevel, targets, reps, &want))
						sameState(t, what, &got, &want)
					}

					pool := &rootPool{groups: groups, groupSize: 1, m: m}
					got, want = *seed, *seed
					sameBits(t, name+"/pool",
						[]float64{pool.bootstrapVariance(reps, m, initLevel, &got)},
						[]float64{pool.referenceBootstrapVariance(reps, m, initLevel, &want)})
					sameState(t, name+"/pool", &got, &want)
				}
			}
		}
	}
}

// A pool past the maxBootstrapGroups merge resamples groups of several
// roots each; the kernel must scale the root count the same way.
func TestBootstrapKernelMatchesReferenceMergedPool(t *testing.T) {
	const m = 4
	src := rng.New(9)
	for _, initLevel := range []int{0, 2} {
		pool := newRootPool(m)
		for _, u := range oracleGroups(src, 3*maxBootstrapGroups+5, m) {
			pool.push(u)
		}
		if pool.groupSize < 2 {
			t.Fatalf("pool never merged: groupSize %d", pool.groupSize)
		}
		seed := rng.New(uint64(initLevel + 1))
		got, want := *seed, *seed
		what := fmt.Sprintf("merged pool (groupSize %d)/init=%d", pool.groupSize, initLevel)
		sameBits(t, what,
			[]float64{pool.bootstrapVariance(200, m, initLevel, &got)},
			[]float64{pool.referenceBootstrapVariance(200, m, initLevel, &want)})
		sameState(t, what, &got, &want)
	}
}

// The kernel's buffers are allocated once per evaluation, not once per
// replicate: 200 replicates cost what one does.
func TestBootstrapAllocsIndependentOfReps(t *testing.T) {
	const m = 4
	groups := oracleGroups(rng.New(3), 500, m)
	targets := []int{2, 3, m}
	src := rng.New(4)
	for _, tc := range []struct {
		name string
		run  func(reps int)
	}{
		{"BootstrapVarianceFromGroups", func(reps int) {
			BootstrapVarianceFromGroups(groups, 16, m, 0, reps, src)
		}},
		{"BootstrapPrefixVariancesFromGroups", func(reps int) {
			BootstrapPrefixVariancesFromGroups(groups, 16, m, 0, targets, reps, src)
		}},
	} {
		one := testing.AllocsPerRun(20, func() { tc.run(1) })
		many := testing.AllocsPerRun(20, func() { tc.run(200) })
		if one != many || many > 3 {
			t.Errorf("%s: %v allocs at 1 replicate, %v at 200; want equal and at most 3", tc.name, one, many)
		}
	}
}
