package core

import (
	"context"
	"fmt"
	"testing"

	"durability/internal/mc"
	"durability/internal/rng"
	"durability/internal/stochastic"
)

// Cold-run benchmarks for the simulation kernel: one full GMLSS run per
// iteration, each model's native bulk form vs the same model behind the
// stochastic.Lanes adapter (the path black-box models take).
// They are the home of the kernel's ns/step: scripts/abbench compares
// two builds of them side by side, and scripts/profile drives them under
// -cpuprofile/-memprofile. Allocations are guarded by TestKernelAllocs.
// BenchmarkBootstrapVariance times §4.2's bootstrap kernel on its own;
// BenchmarkMomentVariance times the delta-method variance every serving
// path reports instead, over the same sizes.

func benchGMLSS(proc stochastic.Process, obs stochastic.Observer, beta float64, plan Plan, horizon int) *GMLSS {
	return &GMLSS{
		Proc:    proc,
		Query:   Query{Z: obs, Beta: beta, Horizon: horizon},
		Plan:    plan,
		Ratio:   3,
		Stop:    mc.Budget{Steps: 300_000},
		Seed:    41,
		Workers: 1,
		Batch:   512,
	}
}

func benchModels(b *testing.B) map[string]*GMLSS {
	b.Helper()
	regime, err := stochastic.NewRegimeSwitching(0,
		[][]float64{{0.95, 0.05}, {0.2, 0.8}},
		[]float64{0.01, 0.3}, []float64{0.5, 2.0}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]*GMLSS{
		"gbm": benchGMLSS(&stochastic.GBM{S0: 100, Mu: 0.002, Sigma: 0.08},
			stochastic.ScalarValue, 200, MustPlan(0.6, 0.75, 0.9), 50),
		// gbm under an observer of the caller's own: the kernel reads it
		// through the lane views, once per lane, as it reads every
		// observer that is not a built-in one (stochastic.Reading).
		"gbm-closure": benchGMLSS(&stochastic.GBM{S0: 100, Mu: 0.002, Sigma: 0.08},
			func(s stochastic.State) float64 { return stochastic.ScalarValue(s) }, 200, MustPlan(0.6, 0.75, 0.9), 50),
		"walk": benchGMLSS(&stochastic.RandomWalk{Start: 5, Drift: 0.2, Sigma: 2},
			stochastic.ScalarValue, 20, MustPlan(0.35, 0.5, 0.65, 0.8), 60),
		// ar and regime at the differential suite's shapes (kernelFixtures).
		"ar": benchGMLSS(stochastic.NewAR([]float64{0.6, 0.3}, 1.5, 1),
			stochastic.ARValue, 10, MustPlan(0.3, 0.5, 0.7, 0.9), 50),
		"regime": benchGMLSS(regime, stochastic.RegimeValue, 15, MustPlan(0.25, 0.5, 0.75), 50),
		"chain": benchGMLSS(stochastic.BirthDeathChain(12, 0.45, 2),
			stochastic.ChainIndex, 9, MustPlan(4.0/9, 6.0/9, 8.0/9), 80),
		// The queue and cpp shapes of perfbench's query-mix, at durserve's
		// default model parameters: the queue dominates its CPU.
		"queue": benchGMLSS(stochastic.NewTandemQueue(0.5, 2, 2),
			stochastic.Queue2Len, 30, MustPlan(0.25, 0.45, 0.65, 0.85), 500),
		"cpp": benchGMLSS(stochastic.NewCompoundPoisson(15, 6, 0.8, 5, 10),
			stochastic.ScalarValue, 40, MustPlan(0.5, 0.65, 0.8), 250),
	}
}

func runColdBench(b *testing.B, g *GMLSS) {
	ctx := context.Background()
	var steps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := g.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns/step")
	}
}

func BenchmarkGMLSSCold(b *testing.B) {
	for name, g := range benchModels(b) {
		b.Run(name+"/adapter", func(b *testing.B) {
			ag := *g
			ag.Proc = stochastic.Lanes(g.Proc)
			runColdBench(b, &ag)
		})
		b.Run(name+"/bulk", func(b *testing.B) {
			runColdBench(b, g)
		})
	}
}

// One estimator round's variance: 200 bootstrap replicates over every
// group a refresh or a sampling round has accumulated, on a four-boundary
// plan with 16 roots per group.
func BenchmarkBootstrapVariance(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			groups := oracleGroups(rng.New(1), n, 4)
			src := rng.New(2)
			b.ReportAllocs()
			for b.Loop() {
				BootstrapVarianceFromGroups(groups, 16, 4, 0, 200, src)
			}
		})
	}
}

// The moment variance over as many roots as BenchmarkBootstrapVariance
// has groups, on the same plan: fold builds the moments from per-root
// units and evaluates once (what a pool costs from scratch); merge
// combines 64-root batch moments and evaluates (a stream refresh's
// evaluate). The evaluation itself is O(m²), independent of the pool.
func BenchmarkMomentVariance(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		units := oracleGroups(rng.New(1), n, 4)
		b.Run(fmt.Sprintf("fold/roots=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mom := NewMoments(4, 0)
				for _, u := range units {
					mom.Add(u)
				}
				mom.Variance(4)
			}
		})
		var batches []Moments
		for lo := 0; lo < n; lo += 64 {
			mom := NewMoments(4, 0)
			for _, u := range units[lo:min(lo+64, n)] {
				mom.Add(u)
			}
			batches = append(batches, mom)
		}
		b.Run(fmt.Sprintf("merge/roots=%d", n), func(b *testing.B) {
			pool := NewMoments(4, 0)
			b.ReportAllocs()
			for b.Loop() {
				pool.Reset(4, 0)
				for i := range batches {
					pool.Merge(&batches[i])
				}
				pool.Variance(4)
			}
		})
	}
}
