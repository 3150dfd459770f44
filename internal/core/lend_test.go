package core_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/opt"
	"durability/internal/stochastic"
)

// atWidths runs answer once with every round pinned to one kernel and
// once with lending forced — Workers 0 and GOMAXPROCS 4, so rounds find
// idle CPUs even on a 2-vCPU runner — and fails unless the lending run
// borrowed helper kernels and both answers are identical.
func atWidths[T any](t *testing.T, answer func(workers int) (T, error)) {
	t.Helper()
	pinned, err := answer(1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := core.LentKernels()
	lending, err := answer(0)
	if err != nil {
		t.Fatal(err)
	}
	if core.LentKernels() == before {
		t.Fatal("no helper kernel joined a round on four idle CPUs")
	}
	if !reflect.DeepEqual(pinned, lending) {
		t.Fatalf("answer depends on the width:\n  width 1: %+v\n  lending: %+v", pinned, lending)
	}
}

// The birth-death chain of TestGMLSSCalibration, with a threshold and a
// relative error that take several rounds.
const (
	lendBeta    = 11
	lendHorizon = 80
)

var (
	lendBounds = []float64{4.0 / 11, 6.0 / 11, 8.0 / 11, 10.0 / 11}
	lendStop   = mc.Any{mc.RETarget{Target: 0.02}, mc.Budget{Steps: 20_000_000}}
	lendQuery  = core.Query{Z: stochastic.ChainIndex, Beta: lendBeta, Horizon: lendHorizon}
)

func lendChain() stochastic.Process { return stochastic.BirthDeathChain(12, 0.45, 2) }

// stripWall zeroes the wall-clock fields, the only ones two runs may
// disagree on.
func stripWall(r mc.Result) mc.Result {
	r.Elapsed, r.VarTime = 0, 0
	return r
}

func TestLendingKeepsGMLSSAnswer(t *testing.T) {
	atWidths(t, func(workers int) (mc.Result, error) {
		g := &core.GMLSS{
			Proc: lendChain(), Query: lendQuery, Plan: core.MustPlan(lendBounds...),
			Ratio: 3, Stop: lendStop, Seed: 3, Workers: workers,
		}
		res, err := g.Run(context.Background())
		return stripWall(res), err
	})
}

func TestLendingKeepsSMLSSAnswer(t *testing.T) {
	atWidths(t, func(workers int) (mc.Result, error) {
		s := &core.SMLSS{
			Proc: lendChain(), Query: lendQuery, Plan: core.MustPlan(lendBounds...),
			Ratio: 3, Stop: lendStop, Seed: 3, Workers: workers,
		}
		res, err := s.Run(context.Background())
		return stripWall(res), err
	})
}

func TestLendingKeepsSampleBatchAnswers(t *testing.T) {
	atWidths(t, func(workers int) ([]mc.Result, error) {
		task := exec.Task{
			Proc: lendChain(), Obs: stochastic.ChainIndex, Beta: lendBeta, Horizon: lendHorizon,
			Boundaries: lendBounds, Ratio: 3, Seed: 5, SimWorkers: workers,
		}
		ladder := []core.Target{{Level: 2, Stop: lendStop}, {Level: 3, Stop: lendStop}, {Level: 4, Stop: lendStop}}
		res, err := exec.SampleBatch(context.Background(), exec.Local{}, task, ladder, exec.SampleOptions{})
		for i := range res {
			res[i] = stripWall(res[i])
		}
		return res, err
	})
}

func TestLendingKeepsGreedyPlan(t *testing.T) {
	atWidths(t, func(workers int) (opt.GreedyResult, error) {
		res, err := opt.Greedy(context.Background(), &opt.Problem{
			Proc: lendChain(), Query: lendQuery, Ratio: 3, Seed: 11, Workers: workers,
		})
		for i := range res.Trials {
			res.Trials[i].Result = stripWall(res.Trials[i].Result)
		}
		return res, err
	})
}
