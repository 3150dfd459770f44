package core

import (
	"context"
	"math"
	"testing"

	"durability/internal/mc"
	"durability/internal/stochastic"
)

// Regression: a plan with no interior boundaries (m == 1) degenerates
// g-MLSS to SRS — the estimator must be hits/paths, not zero. (An early
// version recorded final-boundary crossings only as hits and estimated 0.)
func TestGMLSSEmptyPlanDegeneratesToSRS(t *testing.T) {
	w := &stochastic.RandomWalk{Start: 0, Drift: 0, Sigma: 1}
	q := Query{Z: stochastic.ScalarValue, Beta: 8, Horizon: 100}
	g := &GMLSS{Proc: w, Query: q, Plan: Plan{}, Ratio: 3,
		Stop: mc.Budget{Steps: 500_000}, Seed: 1}
	res, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.P <= 0 {
		t.Fatalf("empty-plan estimate = %v, want > 0", res.P)
	}
	if math.Abs(res.P-float64(res.Hits)/float64(res.Paths)) > 1e-12 {
		t.Fatalf("empty-plan estimator %v != hits/paths %v", res.P, float64(res.Hits)/float64(res.Paths))
	}
}

// Same regression for s-MLSS.
func TestSMLSSEmptyPlan(t *testing.T) {
	w := &stochastic.RandomWalk{Start: 0, Drift: 0, Sigma: 1}
	q := Query{Z: stochastic.ScalarValue, Beta: 8, Horizon: 100}
	s := &SMLSS{Proc: w, Query: q, Plan: Plan{}, Ratio: 3,
		Stop: mc.Budget{Steps: 500_000}, Seed: 2}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.P <= 0 {
		t.Fatalf("estimate = %v", res.P)
	}
	if math.Abs(res.P-float64(res.Hits)/float64(res.Paths)) > 1e-12 {
		t.Fatal("empty-plan s-MLSS is not hits/paths")
	}
}

// A plan whose lowest boundary sits below the initial state's value: the
// root starts above L_0 and the estimator must account for the shorter
// boundary chain rather than mis-scaling.
func TestMLSSInitialStateAboveFirstBoundary(t *testing.T) {
	w := &stochastic.RandomWalk{Start: 5, Drift: 0, Sigma: 1}
	// beta = 10, so the start value 5 has f = 0.5, above the 0.3 boundary.
	q := Query{Z: stochastic.ScalarValue, Beta: 10, Horizon: 200}
	plan := MustPlan(0.3, 0.8)

	ref := &GMLSS{Proc: w, Query: q, Plan: Plan{}, Ratio: 1, Stop: mc.Budget{Steps: 3_000_000}, Seed: 3} // SRS
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"smlss", "gmlss"} {
		var res mc.Result
		if name == "smlss" {
			s := &SMLSS{Proc: w, Query: q, Plan: plan, Ratio: 3, Stop: mc.Budget{Steps: 1_000_000}, Seed: 4}
			res, err = s.Run(context.Background())
		} else {
			g := &GMLSS{Proc: w, Query: q, Plan: plan, Ratio: 3, Stop: mc.Budget{Steps: 1_000_000}, Seed: 5}
			res, err = g.Run(context.Background())
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.P-want.P) > 0.2*want.P {
			t.Fatalf("%s with elevated start: %v vs SRS %v", name, res.P, want.P)
		}
	}
}

// High splitting ratios on an easy query must still terminate and stay
// unbiased — the regime the paper warns is wasteful (Figure 10's right
// edge), not incorrect.
func TestMLSSLargeRatioStillCorrect(t *testing.T) {
	chain, q, plan, want := noSkipChain()
	s := &SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 7,
		Stop: mc.Budget{Steps: 2_000_000}, Seed: 6}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-want) > 0.15*want {
		t.Fatalf("ratio-7 estimate %v, exact %v", res.P, want)
	}
}

// The budget stop rule may overshoot by at most one batch of root trees.
func TestBudgetOvershootBounded(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	const budget = 100_000
	s := &SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: budget}, Seed: 7, Batch: 32}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 32 roots * (tree depth bound): a root tree of the 10-state chain
	// costs at most 50 * (1 + 3 + 9) steps; one batch is < 32 * 650.
	if res.Steps > budget+32*650 {
		t.Fatalf("budget %d overshot to %d", budget, res.Steps)
	}
}

// Boundary values exactly equal to a state's value function count as
// crossed (f >= beta_i semantics).
func TestLevelOfBoundaryEquality(t *testing.T) {
	p := MustPlan(0.5)
	if p.LevelOf(0.5) != 1 {
		t.Fatal("f == boundary must count as crossed")
	}
	if p.LevelOf(math.Nextafter(0.5, 0)) != 0 {
		t.Fatal("f just below boundary must not count")
	}
}

// Trace callbacks observe monotonically non-decreasing cost on both
// samplers.
func TestMLSSTraceMonotone(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	for _, general := range []bool{false, true} {
		var last int64 = -1
		trace := func(r mc.Result) {
			if r.Steps < last {
				t.Fatalf("steps went backwards: %d -> %d", last, r.Steps)
			}
			last = r.Steps
		}
		var err error
		if general {
			g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
				Stop: mc.Budget{Steps: 120_000}, Seed: 8, Trace: trace}
			_, err = g.Run(context.Background())
		} else {
			s := &SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
				Stop: mc.Budget{Steps: 120_000}, Seed: 8, Trace: trace}
			_, err = s.Run(context.Background())
		}
		if err != nil {
			t.Fatal(err)
		}
		if last < 0 {
			t.Fatal("trace never fired")
		}
	}
}

// g-MLSS and s-MLSS agree (bit-for-bit estimates are not expected, but
// statistical agreement is) on a non-skipping process with equal budgets
// — §6.1's premise that the two coincide without level skipping.
func TestSamplersAgreeWithoutSkipping(t *testing.T) {
	chain, q, plan, want := noSkipChain()
	s := &SMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 800_000}, Seed: 9}
	sres, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 800_000}, Seed: 9}
	gres, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sres.P-want) > 0.1*want || math.Abs(gres.P-want) > 0.1*want {
		t.Fatalf("s=%v g=%v exact=%v", sres.P, gres.P, want)
	}
}

// Identical seeds and settings give identical g-MLSS results even with
// the bootstrap in the loop (its resampling uses a dedicated substream).
func TestGMLSSFullyDeterministic(t *testing.T) {
	chain, q, plan, _ := noSkipChain()
	run := func() mc.Result {
		g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
			Stop: mc.Any{mc.RETarget{Target: 0.3}, mc.Budget{Steps: 2_000_000}}, Seed: 10}
		res, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.P != b.P || a.Variance != b.Variance || a.Steps != b.Steps {
		t.Fatalf("repeat run diverged: %+v vs %+v", a, b)
	}
}
