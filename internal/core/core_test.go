package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"durability/internal/mc"
	"durability/internal/rng"
	"durability/internal/stochastic"
)

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(0.5, 0.2); err != nil {
		t.Fatalf("unsorted boundaries should be accepted (sorted defensively): %v", err)
	}
	for _, bad := range [][]float64{{0}, {1}, {-0.1}, {1.5}, {0.3, 0.3}} {
		if _, err := NewPlan(bad...); err == nil {
			t.Errorf("NewPlan(%v) accepted", bad)
		}
	}
	p := MustPlan(0.25, 0.5, 0.75)
	if p.M() != 4 {
		t.Fatalf("M = %d, want 4", p.M())
	}
}

func TestPlanLevelOf(t *testing.T) {
	p := MustPlan(0.4, 0.67)
	cases := []struct {
		f    float64
		want int
	}{
		{0, 0}, {0.39, 0}, {0.4, 1}, {0.5, 1}, {0.66, 1},
		{0.67, 2}, {0.9, 2}, {0.999, 2}, {1, 3}, {1.2, 3},
	}
	for _, tc := range cases {
		if got := p.LevelOf(tc.f); got != tc.want {
			t.Errorf("LevelOf(%v) = %d, want %d", tc.f, got, tc.want)
		}
	}
}

func TestPlanBoundary(t *testing.T) {
	p := MustPlan(0.4, 0.67)
	if p.Boundary(1) != 0.4 || p.Boundary(2) != 0.67 || p.Boundary(3) != 1 {
		t.Fatalf("boundaries wrong: %v %v %v", p.Boundary(1), p.Boundary(2), p.Boundary(3))
	}
}

func TestUniformPlan(t *testing.T) {
	p := UniformPlan(4)
	want := []float64{0.25, 0.5, 0.75}
	if len(p.Boundaries) != 3 {
		t.Fatalf("UniformPlan(4) has %d boundaries", len(p.Boundaries))
	}
	for i := range want {
		if math.Abs(p.Boundaries[i]-want[i]) > 1e-12 {
			t.Fatalf("boundaries = %v, want %v", p.Boundaries, want)
		}
	}
	if UniformPlan(1).M() != 1 {
		t.Fatal("UniformPlan(1) should have no interior boundary (pure SRS levels)")
	}
}

func TestThresholdValueClamps(t *testing.T) {
	f := ThresholdValue(stochastic.ScalarValue, 10)
	if v := f(&stochastic.Scalar{V: -5}); v != 0 {
		t.Fatalf("negative z gave f = %v", v)
	}
	if v := f(&stochastic.Scalar{V: 5}); v != 0.5 {
		t.Fatalf("f = %v, want 0.5", v)
	}
	if v := f(&stochastic.Scalar{V: 25}); v != 1 {
		t.Fatalf("overshoot gave f = %v, want 1", v)
	}
}

func TestThresholdValuePanicsOnBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("beta <= 0 did not panic")
		}
	}()
	ThresholdValue(stochastic.ScalarValue, 0)
}

// noSkipChain is a birth-death chain: values move one state per step, so
// with boundaries more than one state apart no level skipping can occur
// and s-MLSS is exact.
func noSkipChain() (*stochastic.MarkovChain, Query, Plan, float64) {
	chain := stochastic.BirthDeathChain(10, 0.45, 0)
	const horizon, beta = 50, 7
	q := Query{Z: stochastic.ChainIndex, Beta: beta, Horizon: horizon}
	plan := MustPlan(3.0/beta, 5.0/beta)
	target := map[int]bool{}
	for i := beta; i < 10; i++ {
		target[i] = true
	}
	return chain, q, plan, chain.HitProbability(target, horizon)
}

// skipChain adds +4 jumps to a birth-death chain so paths frequently skip
// levels; the exact answer is still computable by dynamic programming.
func skipChain() (*stochastic.MarkovChain, Query, Plan, float64) {
	const n = 15
	mat := make([][]float64, n)
	for i := range mat {
		mat[i] = make([]float64, n)
		up, down, jump := 0.30, 0.55, 0.15
		hi := i + 1
		if hi >= n {
			hi = n - 1
		}
		lo := i - 1
		if lo < 0 {
			lo = 0
		}
		far := i + 4
		if far >= n {
			far = n - 1
		}
		mat[i][hi] += up
		mat[i][lo] += down
		mat[i][far] += jump
	}
	chain, err := stochastic.NewMarkovChain(mat, 0)
	if err != nil {
		panic(err)
	}
	const horizon, beta = 40, 10
	q := Query{Z: stochastic.ChainIndex, Beta: beta, Horizon: horizon}
	plan := MustPlan(4.0/beta, 6.0/beta, 8.0/beta)
	target := map[int]bool{}
	for i := beta; i < n; i++ {
		target[i] = true
	}
	return chain, q, plan, chain.HitProbability(target, horizon)
}

func TestSMLSSMatchesExactNoSkip(t *testing.T) {
	chain, q, plan, want := noSkipChain()
	s := &SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 1_500_000}, Seed: 1}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-want) > 0.05*want {
		t.Fatalf("s-MLSS estimate %v, exact %v", res.P, want)
	}
	if res.Variance <= 0 {
		t.Fatalf("variance = %v, want > 0", res.Variance)
	}
}

func TestGMLSSMatchesExactNoSkip(t *testing.T) {
	chain, q, plan, want := noSkipChain()
	g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 1_500_000}, Seed: 2}
	res, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-want) > 0.05*want {
		t.Fatalf("g-MLSS estimate %v, exact %v", res.P, want)
	}
	if res.Variance <= 0 || math.IsInf(res.Variance, 1) {
		t.Fatalf("variance = %v", res.Variance)
	}
}

func TestGMLSSMatchesExactWithSkipping(t *testing.T) {
	chain, q, plan, want := skipChain()
	g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 2_000_000}, Seed: 3}
	res, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-want) > 0.08*want {
		t.Fatalf("g-MLSS estimate %v under skipping, exact %v", res.P, want)
	}
}

// The headline negative result of §6.2 (Table 6): s-MLSS applied blindly
// to a level-skipping process is biased low, because paths that jump over
// the watched level are lost.
func TestSMLSSBiasedUnderSkipping(t *testing.T) {
	chain, q, plan, want := skipChain()
	s := &SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 2_000_000}, Seed: 4}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.8*want {
		t.Fatalf("s-MLSS estimate %v not visibly below exact %v under skipping", res.P, want)
	}
}

// Across independent runs the mean g-MLSS estimate converges to the exact
// answer — the unbiasedness claim of Proposition 2.
func TestGMLSSUnbiasedAcrossRuns(t *testing.T) {
	chain, q, plan, want := skipChain()
	const runs = 30
	sum := 0.0
	for i := 0; i < runs; i++ {
		g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
			Stop: mc.Budget{Steps: 120_000}, Seed: uint64(100 + i)}
		res, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sum += res.P
	}
	mean := sum / runs
	if math.Abs(mean-want) > 0.10*want {
		t.Fatalf("mean of %d g-MLSS runs = %v, exact %v", runs, mean, want)
	}
}

// Splitting ratio 1 degenerates MLSS to SRS (§3.1): identical estimator
// form, and the estimate still matches the exact answer.
func TestRatioOneDegeneratesToSRS(t *testing.T) {
	chain, q, plan, want := noSkipChain()
	s := &SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 1,
		Stop: mc.Budget{Steps: 800_000}, Seed: 5}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != int64(res.P*float64(res.Paths)+0.5) {
		t.Fatalf("with r=1 the estimator must be hits/paths: %+v", res)
	}
	if math.Abs(res.P-want) > 0.15*want {
		t.Fatalf("r=1 estimate %v, exact %v", res.P, want)
	}
}

func TestMLSSParallelDeterministic(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	run := func(workers int) mc.Result {
		g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
			Stop: mc.Budget{Steps: 200_000}, Seed: 6, Workers: workers}
		res, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if seq.P != par.P || seq.Steps != par.Steps || seq.Hits != par.Hits {
		t.Fatalf("parallel g-MLSS diverged: seq=%+v par=%+v", seq, par)
	}
}

func TestMLSSConfigErrors(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	ctx := context.Background()
	if _, err := (&SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 0, Stop: mc.Budget{Steps: 1}}).Run(ctx); err == nil {
		t.Error("ratio 0 accepted")
	}
	if _, err := (&SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 2}).Run(ctx); err == nil {
		t.Error("missing stop rule accepted")
	}
	if _, err := (&GMLSS{Proc: chain, Query: Query{}, Plan: plan, Ratio: 2, Stop: mc.Budget{Steps: 1}}).Run(ctx); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestMLSSContextCancel(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3, Stop: mc.Budget{Steps: 1 << 60}, Seed: 7}
	if _, err := g.Run(ctx); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

func TestGMLSSVarTimeTracked(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 150_000}, Seed: 8}
	res, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.VarTime <= 0 {
		t.Fatal("bootstrap variance time not tracked")
	}
	if res.VarTime > res.Elapsed {
		t.Fatalf("VarTime %v exceeds Elapsed %v", res.VarTime, res.Elapsed)
	}
}

func TestLevelCountersEstimateEdgeCases(t *testing.T) {
	c := NewCounters(3)
	if got := c.estimate(0, 3, 0); got != 0 {
		t.Fatalf("estimate with no roots = %v", got)
	}
	if got := c.estimate(100, 3, 0); got != 0 {
		t.Fatalf("estimate with no crossers = %v", got)
	}
	// One root crossed all the way by skipping everything.
	c.Skip[1], c.Skip[2], c.Hits = 1, 1, 1
	got := c.estimate(100, 3, 0)
	// pi_1 = 1/100, pi_2 = (0+1)/(0+1) = 1, pi_3 = 1/1 = 1.
	if math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("skip-only estimate = %v, want 0.01", got)
	}
}

func TestLevelCountersAdd(t *testing.T) {
	a, b := NewCounters(2), NewCounters(2)
	a.Land[1], a.Hits = 2, 1
	b.Land[1], b.Skip[1], b.Mu[1], b.Hits = 3, 1, 0.5, 2
	a.Add(b)
	if a.Land[1] != 5 || a.Skip[1] != 1 || a.Mu[1] != 0.5 || a.Hits != 3 {
		t.Fatalf("add gave %+v", a)
	}
}

func TestBootstrapVarianceBeforeData(t *testing.T) {
	if v := BootstrapVarianceFromGroups(nil, 1, 2, 0, 50, rng.New(1)); !math.IsInf(v, 1) {
		t.Fatalf("variance with no groups = %v, want +Inf", v)
	}
}

func TestBootstrapVarianceShrinksWithData(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	variances := make([]float64, 0, 2)
	for _, budget := range []int64{60_000, 600_000} {
		g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
			Stop: mc.Budget{Steps: budget}, Seed: 9}
		res, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		variances = append(variances, res.Variance)
	}
	if variances[1] >= variances[0] {
		t.Fatalf("10x budget did not reduce the reported variance: %v -> %v", variances[0], variances[1])
	}
}

func TestSMLSSLevelEntryCounts(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	s := &SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3, Seed: 10}
	res, counts, err := s.Trial(context.Background(), 320_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps <= 0 {
		t.Fatal("no steps recorded")
	}
	// Landings must decrease with the level (fewer paths reach higher
	// milestones than lower ones when each split keeps ratio*p < 1 here).
	if counts[1] == 0 {
		t.Fatal("no paths reached level 1")
	}
	if counts[2] > counts[1]*3 {
		t.Fatalf("level 2 entries %d exceed r * level-1 entries %d", counts[2], counts[1])
	}
}

// Property: for any boundary placement the g-MLSS estimate on the skipping
// chain stays a valid probability.
func TestQuickGMLSSProducesProbabilities(t *testing.T) {
	chain, q, _, _ := skipChain()
	f := func(seed uint64, b1, b2 uint8) bool {
		lo := 0.1 + 0.4*float64(b1)/255
		hi := lo + 0.05 + (0.9-lo-0.05)*float64(b2)/255
		plan, err := NewPlan(lo, hi)
		if err != nil {
			return true // degenerate draw, skip
		}
		g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 2,
			Stop: mc.Budget{Steps: 20_000}, Seed: seed}
		res, err := g.Run(context.Background())
		if err != nil {
			return false
		}
		return res.P >= 0 && res.P <= 1 && !math.IsNaN(res.P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMLSSRejectsSatisfiedInitialState(t *testing.T) {
	w := &stochastic.RandomWalk{Start: 20, Drift: 0, Sigma: 1}
	q := Query{Z: stochastic.ScalarValue, Beta: 10, Horizon: 10}
	plan := MustPlan(0.5)
	if _, err := (&SMLSS{Proc: w, Query: q, Plan: plan, Ratio: 2, Stop: mc.Budget{Steps: 10}}).Run(context.Background()); err == nil {
		t.Error("SMLSS accepted an initial state at the target")
	}
	if _, err := (&GMLSS{Proc: w, Query: q, Plan: plan, Ratio: 2, Stop: mc.Budget{Steps: 10}}).Run(context.Background()); err == nil {
		t.Error("GMLSS accepted an initial state at the target")
	}
}
