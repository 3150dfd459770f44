// Ablation benchmarks for the design choices DESIGN.md §7 calls out:
// worker parallelism, value-function granularity, and the three-way
// SRS / importance-sampling / MLSS comparison on the one model where
// importance sampling is applicable. (The bootstrap's replicate count and
// evaluation schedule are gone: every estimator path reports the
// delta-method variance of core.Moments, evaluated every round.)
package durability_test

import (
	"context"
	"testing"

	"durability/internal/core"
	"durability/internal/exact"
	"durability/internal/is"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// ablationQuery is a rare queueing event shared by several ablations.
func ablationQuery() (*stochastic.TandemQueue, core.Query, core.Plan) {
	q := stochastic.NewTandemQueue(0.5, 2, 2)
	query := core.Query{
		Value:   core.ThresholdValue(stochastic.Queue2Len, 58),
		Horizon: 500,
	}
	return q, query, core.MustPlan(0.25, 0.45, 0.62, 0.78, 0.9)
}

// BenchmarkAblationParallelWorkers measures wall-clock scaling of the
// parallel root-path driver (§3.1 "Parallel Computations"). Steps stay
// identical across worker counts — results are scheduling-independent —
// so ns/op isolates the speedup.
func BenchmarkAblationParallelWorkers(b *testing.B) {
	proc, query, plan := ablationQuery()
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		b.Run(itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := &core.SMLSS{
					Proc: proc, Query: query, Plan: plan, Ratio: 3,
					Stop:    mc.Budget{Steps: 3_000_000},
					Seed:    7,
					Workers: workers,
				}
				if _, err := s.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationValueFunc compares the paper's min(z/beta, 1) value
// function against a deliberately coarse 4-bucket quantisation of it.
// Unbiasedness survives (only efficiency depends on f, §3), but the
// coarse function can no longer separate the levels, so the run costs
// more for the same target.
func BenchmarkAblationValueFunc(b *testing.B) {
	proc, query, plan := ablationQuery()
	coarse := func(s stochastic.State, t int) float64 {
		v := query.Value(s, t)
		if v >= 1 {
			return 1
		}
		return float64(int(v*4)) / 4
	}
	for _, cfg := range []struct {
		name  string
		value core.ValueFunc
	}{{"fine", query.Value}, {"coarse", coarse}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := &core.SMLSS{
					Proc:  proc,
					Query: core.Query{Value: cfg.value, Horizon: query.Horizon},
					Plan:  plan, Ratio: 3,
					Stop:    mc.Any{mc.RETarget{Target: 0.3}, mc.Budget{Steps: 8_000_000}},
					Seed:    uint64(i) + 3,
					Workers: 8,
				}
				res, err := s.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s: %d steps, p=%.4g", cfg.name, res.Steps, res.P)
				}
			}
		})
	}
}

// BenchmarkAblationVariableRatios compares uniform splitting ratios with
// per-level escalating ratios (more offspring at rarer, higher levels) —
// the optimisation opportunity §4.1 points at. Both are unbiased; the
// comparison is pure efficiency.
func BenchmarkAblationVariableRatios(b *testing.B) {
	proc, query, plan := ablationQuery()
	configs := []struct {
		name   string
		ratios []int
	}{
		{"uniform-3", nil},
		{"escalating", []int{2, 2, 3, 4, 5}},
		{"front-loaded", []int{5, 4, 3, 2, 2}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := &core.GMLSS{
					Proc: proc, Query: query, Plan: plan, Ratio: 3, Ratios: cfg.ratios,
					Stop:    mc.Any{mc.RETarget{Target: 0.3}, mc.Budget{Steps: 8_000_000}},
					Seed:    uint64(i) + 5,
					Workers: 8,
				}
				res, err := g.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s: %d steps, p=%.4g", cfg.name, res.Steps, res.P)
				}
			}
		})
	}
}

// BenchmarkAblationRegimeSwitching runs MLSS on a Markov-modulated walk
// whose rare event is driven by a hidden turbulent regime — the setting
// where a value function that only sees the observable is weakest. MLSS
// must still beat SRS, just by less than on regime-free models.
func BenchmarkAblationRegimeSwitching(b *testing.B) {
	r, err := stochastic.NewRegimeSwitching(0,
		[][]float64{{0.98, 0.02}, {0.10, 0.90}},
		[]float64{0, 0.5},
		[]float64{0.5, 3},
		0)
	if err != nil {
		b.Fatal(err)
	}
	query := core.Query{Value: core.ThresholdValue(stochastic.RegimeValue, 110), Horizon: 300}
	stop := func() mc.StopRule {
		return mc.Any{mc.RETarget{Target: 0.3}, mc.Budget{Steps: 100_000_000}}
	}
	b.Run("srs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &mc.SRS{
				Proc:    r,
				Query:   mc.Query{Cond: mc.Threshold(stochastic.RegimeValue, 110), Horizon: 300},
				Stop:    stop(),
				Seed:    uint64(i) + 1,
				Workers: 8,
			}
			res, err := s.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("srs: %d steps, p=%.4g", res.Steps, res.P)
			}
		}
	})
	b.Run("g-mlss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := &core.GMLSS{
				Proc: r, Query: query,
				Plan:    core.MustPlan(0.35, 0.6, 0.8),
				Ratio:   3,
				Stop:    stop(),
				Seed:    uint64(i) + 2,
				Workers: 8,
			}
			res, err := g.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("g-mlss: %d steps, p=%.4g", res.Steps, res.P)
			}
		}
	})
}

// BenchmarkAblationSRSvsISvsMLSS compares all three samplers on the one
// model importance sampling can handle (the Gaussian walk, §2.2): a rare
// 3.8-sigma barrier. IS wins when the model's internals are available;
// MLSS gets most of the benefit while treating the model as a black box.
func BenchmarkAblationSRSvsISvsMLSS(b *testing.B) {
	walk := &stochastic.RandomWalk{Start: 0, Drift: 0, Sigma: 1}
	const beta, horizon = 38.0, 100
	want, err := exact.BrownianMaxTail(0, 1, horizon, beta)
	if err != nil {
		b.Fatal(err)
	}
	target := func() mc.StopRule {
		return mc.Any{mc.RETarget{Target: 0.3}, mc.Budget{Steps: 400_000_000}}
	}

	b.Run("srs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &mc.SRS{
				Proc:    walk,
				Query:   mc.Query{Cond: mc.Threshold(stochastic.ScalarValue, beta), Horizon: horizon},
				Stop:    target(),
				Seed:    uint64(i) + 1,
				Workers: 8,
			}
			res, err := s.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("srs: %d steps, p=%.3g (ref %.3g)", res.Steps, res.P, want)
			}
		}
	})
	b.Run("is-ce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			theta, pilotCost, err := is.CrossEntropyTilt(walk, beta, horizon, 4, 400, 0.1, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			w := &is.WalkIS{Walk: walk, Beta: beta, Horizon: horizon, Theta: theta,
				Stop: target(), Seed: uint64(i) + 2}
			res, err := w.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("is: %d steps (+%d CE pilot), p=%.3g (ref %.3g)", res.Steps, pilotCost, res.P, want)
			}
		}
	})
	b.Run("g-mlss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := &core.GMLSS{
				Proc:    walk,
				Query:   core.Query{Value: core.ThresholdValue(stochastic.ScalarValue, beta), Horizon: horizon},
				Plan:    core.MustPlan(0.3, 0.55, 0.8),
				Ratio:   3,
				Stop:    target(),
				Seed:    uint64(i) + 3,
				Workers: 8,
			}
			res, err := g.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("g-mlss: %d steps, p=%.3g (ref %.3g)", res.Steps, res.P, want)
			}
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
