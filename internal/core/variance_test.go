package core

import (
	"context"
	"math"
	"testing"

	"durability/internal/mc"
	"durability/internal/rng"
	"durability/internal/stochastic"
)

// twoLevelChain is a skipping chain with a single interior boundary, the
// exact setting of §4.2's closed-form analysis (Figure 3).
func twoLevelChain() (*stochastic.MarkovChain, Query, Plan) {
	const n = 12
	mat := make([][]float64, n)
	for i := range mat {
		mat[i] = make([]float64, n)
		hi := i + 1
		if hi >= n {
			hi = n - 1
		}
		lo := i - 1
		if lo < 0 {
			lo = 0
		}
		far := i + 5
		if far >= n {
			far = n - 1
		}
		mat[i][hi] += 0.32
		mat[i][lo] += 0.53
		mat[i][far] += 0.15
	}
	chain, err := stochastic.NewMarkovChain(mat, 0)
	if err != nil {
		panic(err)
	}
	const beta = 9
	q := Query{Value: ThresholdValue(stochastic.ChainIndex, beta), Horizon: 30}
	return chain, q, MustPlan(5.0 / beta)
}

// The closed form and §4.2's bootstrap, run over the same roots, target
// the same quantity.
func TestTwoLevelVarianceMatchesBootstrap(t *testing.T) {
	chain, q, plan := twoLevelChain()
	g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 1_500_000}, Seed: 11}
	var units []Counters
	res, err := g.RunOn(context.Background(), func(ctx context.Context, lo, hi int64) (ShardResult, error) {
		shard, err := g.RunRootsBy(ctx, lo, hi, 1)
		units = append(units, shard.Groups...)
		return shard, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variance <= 0 {
		t.Fatalf("closed-form variance = %v", res.Variance)
	}
	boot := BootstrapVarianceFromGroups(units, 1, plan.M(), 0, 200, rng.New(3))
	// The closed form's moment plug-ins and the bootstrap's resampling
	// noise bias them in different directions; they agree within a small
	// factor at this sample size.
	if ratio := res.Variance / boot; ratio < 0.3 || ratio > 3 {
		t.Fatalf("closed-form %v vs bootstrap %v (ratio %v)", res.Variance, boot, ratio)
	}
}

// The closed-form variance is calibrated: across many independent runs,
// the empirical variance of the estimates matches the average reported
// variance within statistical slack.
func TestTwoLevelVarianceCalibrated(t *testing.T) {
	chain, q, plan := twoLevelChain()
	const runs = 40
	var ests []float64
	meanVar := 0.0
	for i := 0; i < runs; i++ {
		g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
			Stop: mc.Budget{Steps: 120_000}, Seed: uint64(500 + i)}
		res, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, res.P)
		meanVar += res.Variance
	}
	meanVar /= runs
	mean := 0.0
	for _, e := range ests {
		mean += e
	}
	mean /= runs
	empVar := 0.0
	for _, e := range ests {
		empVar += (e - mean) * (e - mean)
	}
	empVar /= runs - 1
	ratio := meanVar / empVar
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("reported variance %v vs empirical %v (ratio %v)", meanVar, empVar, ratio)
	}
}

func TestTwoLevelVarianceInapplicable(t *testing.T) {
	agg := NewCounters(3)
	if _, ok := twoLevelVariance(agg, 0, 100, 3, 0); ok {
		t.Fatal("m=3 accepted")
	}
	agg2 := NewCounters(2)
	if _, ok := twoLevelVariance(agg2, 0, 100, 2, 1); ok {
		t.Fatal("elevated initial level accepted")
	}
	if _, ok := twoLevelVariance(agg2, 0, 0, 2, 0); ok {
		t.Fatal("zero roots accepted")
	}
	agg2.Land[1] = 1 // a single split cannot give a variance
	if _, ok := twoLevelVariance(agg2, 0, 100, 2, 0); ok {
		t.Fatal("single split accepted")
	}
}

func TestTwoLevelVarianceHandComputed(t *testing.T) {
	// Construct counters by hand: N0=100 roots, 40 land in L1 with
	// per-split fractions alternating 0 and 1 (20 each), 10 skip.
	agg := NewCounters(2)
	agg.Land[1] = 40
	agg.Skip[1] = 10
	agg.Mu[1] = 20 // 20 splits crossed with fraction 1
	fracSq := 20.0 // squares of the same
	v, ok := twoLevelVariance(agg, fracSq, 100, 2, 0)
	if !ok {
		t.Fatal("closed form not applicable")
	}
	p01, p02, p12 := 0.4, 0.1, 0.5
	varFrac := (20 - 40*0.25) / 39.0
	want := p12*p12*p01*(1-p01)/100 + p01*varFrac/100 + p02*(1-p02)/100
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", v, want)
	}
}
