package mc_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// Simple Random Sampling (§2.2) is g-MLSS on the empty plan: core.GMLSS
// with core.Plan{} simulates independent root paths, labels each 1 when
// it reaches the threshold before the horizon, and answers hits/n with
// the sample variance. These tests hold that baseline to the stop rules
// and the result accounting defined here; internal/core's
// TestKernelMatchesSRSOracle holds it to the per-path loop.

// testChain returns a birth-death chain and a query whose exact answer is
// computable by dynamic programming.
func testChain() (*stochastic.MarkovChain, core.Query, float64) {
	chain := stochastic.BirthDeathChain(10, 0.45, 0)
	const horizon = 50
	const beta = 7
	q := core.Query{Z: stochastic.ChainIndex, Beta: beta, Horizon: horizon}
	target := map[int]bool{}
	for i := beta; i < 10; i++ {
		target[i] = true
	}
	return chain, q, chain.HitProbability(target, horizon)
}

// srs is the SRS sampler for the query: g-MLSS without interior levels.
func srs(proc stochastic.Process, q core.Query, stop mc.StopRule, seed uint64) *core.GMLSS {
	return &core.GMLSS{Proc: proc, Query: q, Plan: core.Plan{}, Ratio: 1, Stop: stop, Seed: seed}
}

func TestSRSMatchesExactAnswer(t *testing.T) {
	chain, query, want := testChain()
	res, err := srs(chain, query, mc.Budget{Steps: 2_000_000}, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tol := 5 * math.Sqrt(res.Variance)
	if math.Abs(res.P-want) > tol {
		t.Fatalf("SRS estimate %v, exact %v (tol %v)", res.P, want, tol)
	}
	if res.Steps < 2_000_000 {
		t.Fatalf("stopped before budget: %d steps", res.Steps)
	}
	if res.Paths == 0 || res.Hits == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.P != float64(res.Hits)/float64(res.Paths) {
		t.Fatalf("estimate %v is not hits/paths %d/%d", res.P, res.Hits, res.Paths)
	}
}

func TestSRSParallelDeterministic(t *testing.T) {
	chain, query, _ := testChain()
	run := func(workers int) mc.Result {
		s := srs(chain, query, mc.Budget{Steps: 300_000}, 7)
		s.Workers = workers
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed, res.VarTime = 0, 0
		return res
	}
	if seq, par := run(1), run(8); seq != par {
		t.Fatalf("parallel run diverged: seq=%+v par=%+v", seq, par)
	}
}

func TestSRSRelativeErrorStop(t *testing.T) {
	chain, query, want := testChain()
	res, err := srs(chain, query, mc.Any{mc.RETarget{Target: 0.10}, mc.Budget{Steps: 50_000_000}}, 3).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if re := res.RelErr(); re > 0.10 {
		t.Fatalf("stopped with RE %v, want <= 0.10", re)
	}
	if math.Abs(res.P-want) > 0.3*want {
		t.Fatalf("estimate %v too far from exact %v", res.P, want)
	}
}

func TestSRSCITargetStop(t *testing.T) {
	chain, query, _ := testChain()
	stop := mc.Any{mc.CITarget{Half: 0.05, Confidence: 0.95, Relative: true}, mc.Budget{Steps: 100_000_000}}
	res, err := srs(chain, query, stop, 4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	half := res.CI(0.95).Width() / 2
	if half > 0.05*res.P {
		t.Fatalf("stopped with CI half-width %v (rel %v)", half, half/res.P)
	}
}

func TestSRSContextCancel(t *testing.T) {
	chain, query, _ := testChain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srs(chain, query, mc.Budget{Steps: 1 << 60}, 5).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// The stop rules are consulted, and Trace called, once per round of
// core.RoundRoots roots.
func TestSRSTrace(t *testing.T) {
	chain, query, _ := testChain()
	calls := 0
	var lastSteps int64
	s := srs(chain, query, mc.Budget{Steps: 100_000}, 6)
	s.Trace = func(r mc.Result) {
		calls++
		if r.Steps < lastSteps {
			t.Fatalf("trace steps went backwards: %d -> %d", lastSteps, r.Steps)
		}
		if r.Paths != int64(calls)*core.RoundRoots {
			t.Fatalf("trace %d saw %d paths, want %d", calls, r.Paths, int64(calls)*core.RoundRoots)
		}
		lastSteps = r.Steps
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Fatalf("trace called %d times, want one call per round over several rounds", calls)
	}
}

func TestSRSConfigErrors(t *testing.T) {
	chain, query, _ := testChain()
	ctx := context.Background()
	if _, err := srs(chain, query, nil, 1).Run(ctx); err == nil {
		t.Fatal("missing stop rule not rejected")
	}
	if _, err := srs(chain, core.Query{}, mc.Budget{Steps: 1}, 1).Run(ctx); err == nil {
		t.Fatal("invalid query not rejected")
	}
	high := stochastic.BirthDeathChain(10, 0.45, 8)
	if _, err := srs(high, query, mc.Budget{Steps: 1}, 1).Run(ctx); err == nil {
		t.Fatal("a start state already past the threshold not rejected")
	}
}

// SRS estimator is unbiased: across many independent short runs, the mean
// estimate matches the exact answer well within the standard error.
func TestSRSUnbiasedAcrossRuns(t *testing.T) {
	chain, query, want := testChain()
	const runs = 40
	sum := 0.0
	for i := 0; i < runs; i++ {
		res, err := srs(chain, query, mc.Budget{Steps: 60_000}, uint64(1000+i)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sum += res.P
	}
	mean := sum / runs
	if math.Abs(mean-want) > 0.15*want {
		t.Fatalf("mean of %d SRS runs = %v, exact %v", runs, mean, want)
	}
}
