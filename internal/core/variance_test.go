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
	q := Query{Z: stochastic.ChainIndex, Beta: beta, Horizon: 30}
	return chain, q, MustPlan(5.0 / beta)
}

// On a two-level plan the loop's reported variance (the moment form, the
// exact sample variance of the per-root estimate) and §4.2's bootstrap,
// run over the same roots, target the same quantity.
func TestTwoLevelVarianceMatchesBootstrap(t *testing.T) {
	chain, q, plan := twoLevelChain()
	g := &GMLSS{Proc: chain, Query: q, Plan: plan, Ratio: 3,
		Stop: mc.Budget{Steps: 1_500_000}, Seed: 11}
	var units []Counters
	res, err := g.RunOn(context.Background(), func(ctx context.Context, lo, hi int64, into *Pool) error {
		shard, err := g.RunRootsBy(ctx, lo, hi, 1)
		units = append(units, shard.Groups...)
		if ferr := into.FoldUnits(shard); ferr != nil {
			return ferr
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variance <= 0 {
		t.Fatalf("two-level variance = %v", res.Variance)
	}
	boot := BootstrapVarianceFromGroups(units, 1, plan.M(), 0, 200, rng.New(3))
	// The delta method's linearization and the bootstrap's resampling
	// noise bias them in different directions; they agree within a small
	// factor at this sample size.
	if ratio := res.Variance / boot; ratio < 0.3 || ratio > 3 {
		t.Fatalf("two-level %v vs bootstrap %v (ratio %v)", res.Variance, boot, ratio)
	}
}

// The two-level variance is calibrated: across many independent runs,
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

// twoLevelVariance is the closed-form variance of the g-MLSS estimator
// for the simple-but-nontrivial case the paper analyses in §4.2: two
// levels with level skipping (Figure 3). With
//
//	p01 = P(land in L1), p02 = P(jump straight past beta_2),
//	p12 = P(cross beta_2 | landed in L1),
//
// Eq. 11 reads
//
//	Var(tau_hat) = p12^2 * p01(1-p01)/N0
//	             + p01 * Var(N2^<1>)/(N0 r^2)
//	             + p02(1-p02)/N0
//
// where N2^<1> is the number of target hits among one split state's r
// offspring. All quantities are estimated from the run's own counters:
// p01 = Land[1]/N0, p02 = Skip[1]/N0, p12 = Mu[1]/Land[1], and
// Var(N2^<1>) from the per-split first and second moments: Mu[1] and
// fracSq, the sum of squared per-split crossing fractions.
//
// It returns (variance, true) only when the plan really has m == 2 and at
// least two splits happened. No serving path reports it: the estimator
// loop reports the moment variance (Moments) on every plan, which Eq. 11
// equals up to divisors when no root skips level 1 — Eq. 11 is the
// moment form plus 2·p01·p12·p02/N0, the landing/skip covariance the
// closed form leaves out. It stays as the test oracle of that identity.
func twoLevelVariance(agg Counters, fracSq float64, n int64, m, initLevel int) (float64, bool) {
	if m != 2 || initLevel != 0 || n == 0 {
		return 0, false
	}
	n0 := float64(n)
	h1 := agg.Land[1]
	if h1 < 2 {
		return 0, false
	}
	p01 := h1 / n0
	p02 := agg.Skip[1] / n0
	p12 := agg.Mu[1] / h1
	// Var over splits of the offspring hit count N2^<1> = r * frac:
	// Var(r*frac) = r^2 * (E[frac^2] - E[frac]^2), with the unbiased
	// (h1-1) divisor.
	meanFrac := agg.Mu[1] / h1
	varFrac := (fracSq - h1*meanFrac*meanFrac) / (h1 - 1)
	if varFrac < 0 {
		varFrac = 0
	}
	// Var(N2^<1>)/r^2 = varFrac, so the middle term is p01 * varFrac / N0.
	v := p12*p12*p01*(1-p01)/n0 +
		p01*varFrac/n0 +
		p02*(1-p02)/n0
	if math.IsNaN(v) || v < 0 {
		return 0, false
	}
	return v, true
}
