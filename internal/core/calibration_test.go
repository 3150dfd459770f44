package core

import (
	"context"
	"math"
	"testing"

	"durability/internal/exact"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// TestGMLSSCalibration holds the one-shot g-MLSS estimator loop to exact
// ground truth over K fixed seeds: a birth-death chain whose hitting
// probability internal/exact computes, a three-boundary plan (so the
// variance comes from the bootstrap on §4.2's schedule), and a
// relative-error stop rule, as served queries run. Every `==` drill
// compares two runs of the same code; this is the check that the code
// is right. At fixed seeds the result is deterministic, so it cannot
// flake.
//
// Two statistics are gated:
//   - coverage of the nominal 95% CI must lie in the binomial 3-sigma
//     band around 0.95 at K = 400, [0.917, 0.983];
//   - the z-scored bias |sum (P - p)/se| / sqrt(K) must stay below 3.
func TestGMLSSCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs 400 seeded queries")
	}
	const (
		K       = 400
		beta    = 9
		horizon = 80
	)
	p, err := exact.LatticeWalkHit(map[int]float64{+1: 0.45, -1: 0.55}, 2, beta, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	covered, zsum := 0, 0.0
	for seed := uint64(1); seed <= K; seed++ {
		g := &GMLSS{
			Proc:  stochastic.BirthDeathChain(12, 0.45, 2),
			Query: Query{Value: ThresholdValue(stochastic.ChainIndex, beta), Horizon: horizon},
			Plan:  MustPlan(4.0/9, 6.0/9, 8.0/9),
			Ratio: 3,
			Stop:  mc.Any{mc.RETarget{Target: 0.15}, mc.Budget{Steps: 10_000_000}},
			Seed:  seed,
		}
		res, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ci := res.CI(0.95); ci.Lo <= p && p <= ci.Hi {
			covered++
		}
		zsum += (res.P - p) / res.StdErr()
	}
	coverage := float64(covered) / K
	bias := math.Abs(zsum) / math.Sqrt(K)
	t.Logf("exact p = %.4f: 95%% CI coverage %.3f, bias z %.2f over %d seeds", p, coverage, bias, K)
	if coverage < 0.917 || coverage > 0.983 {
		t.Errorf("95%% CI coverage %.3f outside the binomial band [0.917, 0.983]", coverage)
	}
	if bias >= 3 {
		t.Errorf("bias z-score %.2f >= 3", bias)
	}
}
