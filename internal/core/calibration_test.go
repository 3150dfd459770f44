package core_test

import (
	"context"
	"math"
	"testing"

	"durability/internal/core"
	"durability/internal/exact"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/stats"
	"durability/internal/stochastic"
)

// The calibration gates hold the estimator paths to exact ground truth
// over K fixed seeds, with relative-error stop rules as served queries
// run. Every `==` drill compares two runs of the same code; these are the
// checks that the code is right. At fixed seeds the results are
// deterministic, so they cannot flake.
//
// Three statistics are gated:
//   - coverage of the nominal 95% CI must lie in the binomial 3-sigma
//     band around 0.95 at K = 400, [0.917, 0.983];
//   - the z-scored bias |sum (P - p)/se| / sqrt(K) must stay below 3;
//   - every answer must deliver the relative error it stopped on: the
//     stop rule and the reported variance are the same number.
const calibrationK = 400

func calibrate(t *testing.T, p, target float64, answer func(seed uint64) (mc.Result, error)) {
	t.Helper()
	covered, over := 0, 0
	zsum, steps := 0.0, 0.0
	for seed := uint64(1); seed <= calibrationK; seed++ {
		res, err := answer(seed)
		if err != nil {
			t.Fatal(err)
		}
		if ci := res.CI(0.95); ci.Lo <= p && p <= ci.Hi {
			covered++
		}
		if stats.RelativeError(res.P, res.Variance) > target {
			over++
		}
		zsum += (res.P - p) / res.StdErr()
		steps += float64(res.Steps)
	}
	coverage := float64(covered) / calibrationK
	bias := math.Abs(zsum) / math.Sqrt(calibrationK)
	t.Logf("exact p = %.4g: 95%% CI coverage %.3f, bias z %.2f, %d of %d answers over RE %.2f, mean steps %.0f",
		p, coverage, bias, over, calibrationK, target, steps/calibrationK)
	if coverage < 0.917 || coverage > 0.983 {
		t.Errorf("95%% CI coverage %.3f outside the binomial band [0.917, 0.983]", coverage)
	}
	if bias >= 3 {
		t.Errorf("bias z-score %.2f >= 3", bias)
	}
	if over > 0 {
		t.Errorf("%d of %d answers report a relative error above the target %.2f they stopped on", over, calibrationK, target)
	}
}

// TestGMLSSCalibration gates the one-shot g-MLSS loop and a one-target
// batch (exec.SampleBatch) on a birth-death chain whose hitting
// probability internal/exact computes, with a three-boundary plan, and
// the one-shot loop again with a single interior boundary: the two-level
// plan that §4.2's Eq. 11 covers in closed form and the loop answers
// with the moment variance like every other. The srs case runs the
// one-shot loop on the empty plan, the SRS baseline.
func TestGMLSSCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs 400 seeded queries per path")
	}
	const (
		beta    = 9
		horizon = 80
		re      = 0.15
	)
	p, err := exact.LatticeWalkHit(map[int]float64{+1: 0.45, -1: 0.55}, 2, beta, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []float64{4.0 / 9, 6.0 / 9, 8.0 / 9}
	stopAt := func(re float64) mc.StopRule {
		return mc.Any{mc.RETarget{Target: re}, mc.Budget{Steps: 10_000_000}}
	}
	stop := stopAt(re)
	oneShot := func(plan core.Plan, ratio int, stop mc.StopRule) func(seed uint64) (mc.Result, error) {
		return func(seed uint64) (mc.Result, error) {
			g := &core.GMLSS{
				Proc:  stochastic.BirthDeathChain(12, 0.45, 2),
				Query: core.Query{Z: stochastic.ChainIndex, Beta: beta, Horizon: horizon},
				Plan:  plan,
				Ratio: ratio,
				Stop:  stop,
				Seed:  seed,
			}
			return g.Run(context.Background())
		}
	}
	t.Run("one-shot", func(t *testing.T) {
		calibrate(t, p, re, oneShot(core.MustPlan(boundaries...), 3, stop))
	})
	t.Run("two-level", func(t *testing.T) {
		calibrate(t, p, re, oneShot(core.MustPlan(5.0/9), 3, stop))
	})
	t.Run("srs", func(t *testing.T) {
		// The empty plan is SRS (§2.2). p is common here, so a tighter
		// target makes every answer run several rounds.
		const srsRE = 0.05
		calibrate(t, p, srsRE, oneShot(core.Plan{}, 1, stopAt(srsRE)))
	})
	t.Run("batch", func(t *testing.T) {
		top := core.MustPlan(boundaries...).M()
		calibrate(t, p, re, func(seed uint64) (mc.Result, error) {
			task := exec.Task{
				Proc: stochastic.BirthDeathChain(12, 0.45, 2), Obs: stochastic.ChainIndex,
				Beta: beta, Horizon: horizon, Boundaries: boundaries, Ratio: 3, Seed: seed,
			}
			res, err := exec.SampleBatch(context.Background(), exec.Local{}, task,
				[]core.Target{{Level: top, Stop: stop}}, exec.SampleOptions{})
			if err != nil {
				return mc.Result{}, err
			}
			return res[0], nil
		})
	})
}

// TestGMLSSCalibrationRareSkip gates the one-shot loop on a rare,
// level-skipping fixture: a walk stepping +2 w.p. 0.25 and -1 w.p. 0.75,
// clamped at 0, from state 2 to beta 28 within 100 steps (p = 1.42e-3).
// Its +2 jumps skip boundaries, so g-MLSS's skip accounting is
// exercised, and at RE 0.10 every seed runs several rounds, so the stop
// rule is too.
func TestGMLSSCalibrationRareSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs 400 seeded rare-event queries")
	}
	const (
		states  = 40
		start   = 2
		beta    = 28
		horizon = 100
		re      = 0.10
	)
	p, err := exact.LatticeWalkHit(map[int]float64{+2: 0.25, -1: 0.75}, start, beta, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	mat := make([][]float64, states)
	for i := range mat {
		mat[i] = make([]float64, states)
		mat[i][min(i+2, states-1)] += 0.25
		mat[i][max(i-1, 0)] += 0.75
	}
	var bounds []float64
	for b := 6; b <= 26; b += 4 {
		bounds = append(bounds, float64(b)/beta)
	}
	calibrate(t, p, re, func(seed uint64) (mc.Result, error) {
		chain, err := stochastic.NewMarkovChain(mat, start)
		if err != nil {
			return mc.Result{}, err
		}
		g := &core.GMLSS{
			Proc:  chain,
			Query: core.Query{Z: stochastic.ChainIndex, Beta: beta, Horizon: horizon},
			Plan:  core.MustPlan(bounds...),
			Ratio: 3,
			Stop:  mc.Any{mc.RETarget{Target: re}, mc.Budget{Steps: 50_000_000}},
			Seed:  seed,
		}
		return g.Run(context.Background())
	})
}
