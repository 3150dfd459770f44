package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// The kernel benchmark: every built-in model run cold through GMLSS with
// its native bulk form and behind the stochastic.Lanes adapter (the path
// every black-box model takes: boxed per-lane states, one Step call per
// lane), at the same seed and step budget. The two are bit-for-bit equal
// by contract, so the run doubles as a divergence tripwire; the numbers
// that differ are cost, not answers: ns/step and steps/sec (wall-clock,
// informational across machines) and allocs/root (deterministic; the
// native figure is guarded against the committed BENCH_kernel.json under
// the same >10% budget as the serve scenarios).
//
// The estimator's per-round variance (a moment fold, O(m²) per root) is
// bookkeeping both paths share; Batch 512 keeps its rounds few.

// kernelScenario is one built-in model under a fixed splitting config.
type kernelScenario struct {
	name    string
	proc    stochastic.Process
	obs     stochastic.Observer
	beta    float64
	levels  []float64
	horizon int
}

func kernelScenarios() ([]kernelScenario, error) {
	regime, err := stochastic.NewRegimeSwitching(0,
		[][]float64{{0.95, 0.05}, {0.2, 0.8}},
		[]float64{0.01, 0.3}, []float64{0.5, 2.0}, 0)
	if err != nil {
		return nil, err
	}
	return []kernelScenario{
		{name: "gbm", proc: &stochastic.GBM{S0: 100, Mu: 0.002, Sigma: 0.08},
			obs: stochastic.ScalarValue, beta: 200, levels: []float64{0.6, 0.75, 0.9}, horizon: 50},
		{name: "walk", proc: &stochastic.RandomWalk{Start: 5, Drift: 0.2, Sigma: 2},
			obs: stochastic.ScalarValue, beta: 20, levels: []float64{0.35, 0.5, 0.65, 0.8}, horizon: 60},
		{name: "ar", proc: stochastic.NewAR([]float64{0.6, 0.3}, 1.5, 1),
			obs: stochastic.ARValue, beta: 10, levels: []float64{0.3, 0.5, 0.7, 0.9}, horizon: 50},
		{name: "cpp", proc: &stochastic.CompoundPoisson{
			U0: 10, Premium: 1, ClaimRate: 0.8, ClaimLo: 0, ClaimHi: 2,
			ImpulseProb: 0.05, ImpulseSize: 4, ImpulseAfter: 3},
			obs: stochastic.ScalarValue, beta: 25, levels: []float64{0.5, 0.65, 0.8}, horizon: 60},
		{name: "chain", proc: stochastic.BirthDeathChain(12, 0.45, 2),
			obs: stochastic.ChainIndex, beta: 9, levels: []float64{4.0 / 9, 6.0 / 9, 8.0 / 9}, horizon: 80},
		{name: "regime", proc: regime,
			obs: stochastic.RegimeValue, beta: 15, levels: []float64{0.25, 0.5, 0.75}, horizon: 50},
		{name: "queue", proc: &stochastic.TandemQueue{
			ArrivalRate: 0.5, ServiceRate1: 0.5, ServiceRate2: 0.5,
			ImpulseProb: 0.1, ImpulseSize: 3, ImpulseAfter: 2},
			obs: stochastic.Queue2Len, beta: 8, levels: []float64{0.25, 0.5, 0.75}, horizon: 60},
	}, nil
}

func (sc kernelScenario) gmlss(proc stochastic.Process, budget int64) (*core.GMLSS, error) {
	plan, err := core.NewPlan(sc.levels...)
	if err != nil {
		return nil, err
	}
	return &core.GMLSS{
		Proc:    proc,
		Query:   core.Query{Value: core.ThresholdValue(sc.obs, sc.beta), Horizon: sc.horizon},
		Plan:    plan,
		Ratio:   3,
		Stop:    mc.Budget{Steps: budget},
		Seed:    41,
		Workers: 1,
		Batch:   512,
	}, nil
}

// kernelReport is one entry of the BENCH_kernel.json array.
type kernelReport struct {
	Model string `json:"model"`
	Roots int64  `json:"roots"`
	Steps int64  `json:"steps"` // deterministic; equal on both paths by contract

	BulkNsPerStep      float64 `json:"bulkNsPerStep"`
	AdapterNsPerStep   float64 `json:"adapterNsPerStep"`
	BulkStepsPerSec    float64 `json:"bulkStepsPerSec"`
	AdapterStepsPerSec float64 `json:"adapterStepsPerSec"`

	// Allocations per completed root, measured over a whole cold run.
	// The native path amortizes pooled lane state to O(1); the adapter
	// pays one Clone per root start, spill and offspring restore.
	BulkAllocsPerRoot    float64 `json:"bulkAllocsPerRoot"`
	AdapterAllocsPerRoot float64 `json:"adapterAllocsPerRoot"`

	// Speedup is adapter ns/step over native ns/step: what a model gains
	// by shipping a native bulk form instead of running as a black box.
	Speedup float64 `json:"speedup"`
}

// timedRun measures one cold GMLSS run: wall time, steps, roots, and
// total heap allocations. Mallocs deltas are exact counts, so the
// allocation numbers are deterministic where wall time is not.
func timedRun(ctx context.Context, g *core.GMLSS) (elapsed time.Duration, res mc.Result, allocs uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err = g.Run(ctx)
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, res, after.Mallocs - before.Mallocs, err
}

// runKernelBench produces the BENCH_kernel.json array. Each path runs
// reps times and keeps the fastest wall clock; allocations come from the
// last run (they are identical across runs).
func runKernelBench(ctx context.Context, budget int64, reps int) ([]kernelReport, error) {
	scenarios, err := kernelScenarios()
	if err != nil {
		return nil, err
	}
	out := make([]kernelReport, 0, len(scenarios))
	for _, sc := range scenarios {
		bulk, err := sc.gmlss(sc.proc, budget)
		if err != nil {
			return nil, err
		}
		adapter, err := sc.gmlss(stochastic.Lanes(sc.proc), budget)
		if err != nil {
			return nil, err
		}

		var bulkRes, adapterRes mc.Result
		var bulkNs, adapterNs float64
		var bulkAllocs, adapterAllocs uint64
		for i := 0; i < reps; i++ {
			el, res, al, err := timedRun(ctx, bulk)
			if err != nil {
				return nil, fmt.Errorf("kernel %s bulk: %w", sc.name, err)
			}
			if ns := float64(el.Nanoseconds()); i == 0 || ns < bulkNs {
				bulkNs = ns
			}
			bulkRes, bulkAllocs = res, al

			el, res, al, err = timedRun(ctx, adapter)
			if err != nil {
				return nil, fmt.Errorf("kernel %s adapter: %w", sc.name, err)
			}
			if ns := float64(el.Nanoseconds()); i == 0 || ns < adapterNs {
				adapterNs = ns
			}
			adapterRes, adapterAllocs = res, al
		}

		// The divergence tripwire: the two paths must produce the same
		// answer, not just similar costs.
		if adapterRes.P != bulkRes.P || adapterRes.Steps != bulkRes.Steps ||
			adapterRes.Paths != bulkRes.Paths || adapterRes.Hits != bulkRes.Hits {
			return nil, fmt.Errorf("kernel %s: native diverged from adapter: P %v vs %v, steps %d vs %d, roots %d vs %d, hits %d vs %d",
				sc.name, bulkRes.P, adapterRes.P, bulkRes.Steps, adapterRes.Steps,
				bulkRes.Paths, adapterRes.Paths, bulkRes.Hits, adapterRes.Hits)
		}

		r := kernelReport{
			Model:                sc.name,
			Roots:                bulkRes.Paths,
			Steps:                bulkRes.Steps,
			BulkNsPerStep:        bulkNs / float64(bulkRes.Steps),
			AdapterNsPerStep:     adapterNs / float64(bulkRes.Steps),
			BulkAllocsPerRoot:    float64(bulkAllocs) / float64(bulkRes.Paths),
			AdapterAllocsPerRoot: float64(adapterAllocs) / float64(bulkRes.Paths),
		}
		r.BulkStepsPerSec = 1e9 / r.BulkNsPerStep
		r.AdapterStepsPerSec = 1e9 / r.AdapterNsPerStep
		r.Speedup = r.AdapterNsPerStep / r.BulkNsPerStep
		out = append(out, r)
	}
	return out, nil
}

// loadKernelBaseline reads a committed BENCH_kernel.json, with the same
// missing-file-guards-nothing contract as loadBaseline.
func loadKernelBaseline(path string) ([]kernelReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("durbench: reading kernel baseline %s: %w", path, err)
	}
	var base []kernelReport
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, fmt.Errorf("durbench: parsing kernel baseline %s: %w", path, err)
	}
	return base, nil
}

// checkKernelRegression guards the deterministic kernel quantity against
// the committed baseline: native allocs/root may grow at most the guard
// budget (plus half an allocation of absolute slack — the numbers sit
// near one, where a ratio alone is too twitchy).
// Wall-clock numbers are recorded, not guarded: ns/step is a property of
// the machine as much as the code.
func checkKernelRegression(base, fresh []kernelReport) error {
	byModel := map[string]kernelReport{}
	for _, old := range base {
		byModel[old.Model] = old
	}
	for _, r := range fresh {
		old, ok := byModel[r.Model]
		if !ok {
			continue
		}
		if r.BulkAllocsPerRoot > guardBudget*old.BulkAllocsPerRoot+0.5 {
			return fmt.Errorf("durbench: kernel %s bulk allocs/root regressed: %.3f vs committed %.3f (>%.0f%% budget)",
				r.Model, r.BulkAllocsPerRoot, old.BulkAllocsPerRoot, 100*(guardBudget-1))
		}
	}
	return nil
}
