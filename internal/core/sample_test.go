package core_test

import (
	"context"
	"testing"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// A one-target batch at the top level is a one-shot query: both run the
// one estimator loop with one target at level m, so exec.SampleBatch
// answers == exec.Sample. The fixture is a two-level plan, the shape
// whose variance Eq. 11 gives in closed form; both paths report the
// moment variance there too.
func TestSampleBatchOneTargetIsSample(t *testing.T) {
	stop := mc.Any{mc.RETarget{Target: 0.1}, mc.Budget{Steps: 10_000_000}}
	for seed := uint64(1); seed <= 5; seed++ {
		task := exec.Task{
			Proc: stochastic.BirthDeathChain(12, 0.45, 2), Obs: stochastic.ChainIndex,
			Beta: 9, Horizon: 80, Boundaries: []float64{5.0 / 9}, Ratio: 3, Seed: seed,
		}
		one, err := exec.Sample(context.Background(), exec.Local{}, task, exec.SampleOptions{Stop: stop})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := exec.SampleBatch(context.Background(), exec.Local{}, task,
			[]core.Target{{Level: core.MustPlan(task.Boundaries...).M(), Stop: stop}}, exec.SampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := batch[0]
		one.Elapsed, one.VarTime, got.Elapsed, got.VarTime = 0, 0, 0, 0
		if got != one {
			t.Fatalf("seed %d: one-target batch %+v != one-shot %+v", seed, got, one)
		}
	}
}
