package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline commits a synthetic BENCH_serve.json and loads it back
// through the same decode path main uses.
func writeBaseline(t *testing.T, contents string) []benchReport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatalf("loadBaseline: %v", err)
	}
	return base
}

const syntheticBaseline = `[
  {"scenario": "ladder", "backend": "local", "relErrTarget": 0.1,
   "thresholds": 10, "batchSteps": 100000, "perQuerySteps": 2000000, "speedup": 20},
  {"scenario": "recovery", "backend": "local", "relErrTarget": 0.1,
   "recoverySteps": 50000, "coldRestartSteps": 500000, "speedup": 10}
]`

// TestBatchGuardTrips is the guard's own regression test: the >10%
// tripwire must fire at +10.1% and stay quiet at +9%.
func TestBatchGuardTrips(t *testing.T) {
	base := writeBaseline(t, syntheticBaseline)

	regressed := benchReport{Scenario: "ladder", RelErr: 0.1, BatchSteps: 110100} // +10.1%
	err := checkBatchRegression(base, regressed)
	if err == nil {
		t.Fatalf("guard did not trip at +10.1%% (%d vs %d)", regressed.BatchSteps, 100000)
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("unexpected guard error: %v", err)
	}

	within := benchReport{Scenario: "ladder", RelErr: 0.1, BatchSteps: 109000} // +9%
	if err := checkBatchRegression(base, within); err != nil {
		t.Fatalf("guard tripped inside the 10%% budget: %v", err)
	}

	exact := benchReport{Scenario: "ladder", RelErr: 0.1, BatchSteps: 110000} // exactly +10%
	if err := checkBatchRegression(base, exact); err != nil {
		t.Fatalf("guard tripped at exactly +10%% (budget is exclusive): %v", err)
	}
}

// TestRecoveryGuardTrips mirrors the batch guard assertions for the
// recovery scenario.
func TestRecoveryGuardTrips(t *testing.T) {
	base := writeBaseline(t, syntheticBaseline)

	regressed := benchReport{Scenario: "recovery", RelErr: 0.1, RecoverySteps: 56000} // +12%
	if err := checkRecoveryRegression(base, regressed); err == nil {
		t.Fatal("recovery guard did not trip at +12%")
	}

	within := benchReport{Scenario: "recovery", RelErr: 0.1, RecoverySteps: 54500} // +9%
	if err := checkRecoveryRegression(base, within); err != nil {
		t.Fatalf("recovery guard tripped inside the 10%% budget: %v", err)
	}
}

// TestGuardMatchesScenarioAndTarget pins the matching rules: a fresh
// report only guards against baselines with the same scenario name and
// relative-error target, and baselines without the scenario's step
// counter guard nothing.
func TestGuardMatchesScenarioAndTarget(t *testing.T) {
	base := writeBaseline(t, syntheticBaseline)

	otherScenario := benchReport{Scenario: "other", RelErr: 0.1, BatchSteps: 10_000_000}
	if err := checkBatchRegression(base, otherScenario); err != nil {
		t.Fatalf("guard matched a different scenario: %v", err)
	}
	otherTarget := benchReport{Scenario: "ladder", RelErr: 0.05, BatchSteps: 10_000_000}
	if err := checkBatchRegression(base, otherTarget); err != nil {
		t.Fatalf("guard matched a different RE target: %v", err)
	}
	// The recovery entry has no BatchSteps: it must not batch-guard.
	viaRecovery := benchReport{Scenario: "recovery", RelErr: 0.1, BatchSteps: 10_000_000}
	if err := checkBatchRegression(base, viaRecovery); err != nil {
		t.Fatalf("batch guard matched a recovery-only baseline: %v", err)
	}
}

// TestGuardRefusesInformationalFields pins the refusal: wall-clock
// readings are typed *wallClock, and asking the guard to compare one is
// an error — not a silent skip — as is naming any field that is neither
// an int64 step counter nor a stepAverage. The refusal is structural (the field's type), so
// no future scenario can accidentally put a machine-dependent number
// under the regression gate.
func TestGuardRefusesInformationalFields(t *testing.T) {
	fresh := benchReport{Scenario: "failover", FailoverSteps: 1, FailoverMillis: informational(12), TickMillisHistogram: tickMillis([]float64{3, 40})}
	if err := checkStepRegression(nil, fresh, "failover", "failoverMillis", false); err == nil || !strings.Contains(err.Error(), "informational") {
		t.Fatalf("guard agreed to compare a wall-clock field: %v", err)
	}
	if err := checkStepRegression(nil, fresh, "failover", "tickMillisHistogram", false); err == nil || !strings.Contains(err.Error(), "informational") {
		t.Fatalf("guard agreed to compare the per-tick latency histogram: %v", err)
	}
	if err := checkStepRegression(nil, fresh, "failover", "p99TickMillis", false); err == nil || !strings.Contains(err.Error(), "informational") {
		t.Fatalf("guard agreed to compare p99TickMillis (nil reading must still refuse): %v", err)
	}
	if err := checkStepRegression(nil, fresh, "failover", "speedup", false); err == nil {
		t.Fatal("guard agreed to compare a float field")
	}
	if err := checkStepRegression(nil, fresh, "failover", "relErrTarget", false); err == nil {
		t.Fatal("guard agreed to compare the relative-error target")
	}
	if err := checkStepRegression(nil, fresh, "failover", "noSuchField", false); err == nil {
		t.Fatal("guard agreed to compare a nonexistent field")
	}
	if err := checkStepRegression(nil, fresh, "failover", "failoverSteps", false); err != nil {
		t.Fatalf("guard refused a legitimate step counter: %v", err)
	}
}

const streamBaseline = `[
  {"scenario": "gbm", "backend": "local", "ticks": 200, "relErrTarget": 0.1,
   "coldRuns": 5, "coldStepsPerQuery": 1000000.5, "incrementalStepsPerTick": 40000.25, "speedup": 25},
  {"scenario": "gbm", "backend": "cluster(2 workers)", "ticks": 200, "relErrTarget": 0.1,
   "incrementalStepsPerTick": 40000.25, "speedup": 25}
]`

// TestStreamGuardTrips: the standing-query scenario's two step averages
// are guarded like the integer counters, per backend, and only against
// a baseline of the same tick and cold-run counts.
func TestStreamGuardTrips(t *testing.T) {
	base := writeBaseline(t, streamBaseline)
	local := benchReport{Scenario: "gbm", Backend: "local", Ticks: 200, RelErr: 0.1, ColdRuns: 5,
		ColdStepsPerQuery: 1000000.5, IncrementalStepsPerTick: 40000.25}
	cluster := benchReport{Scenario: "gbm", Backend: "cluster(2 workers)", Ticks: 200, RelErr: 0.1,
		IncrementalStepsPerTick: 40000.25}
	for _, r := range []benchReport{local, cluster} {
		if err := checkStreamRegression(base, r); err != nil {
			t.Fatalf("%s: guard tripped on the baseline's own figures: %v", r.Backend, err)
		}
	}

	cold := local
	cold.ColdStepsPerQuery *= 1.101
	if err := checkStreamRegression(base, cold); err == nil || !strings.Contains(err.Error(), "cold") {
		t.Fatalf("guard did not trip on cold steps/query at +10.1%%: %v", err)
	}
	for _, r := range []benchReport{local, cluster} {
		inc := r
		inc.IncrementalStepsPerTick *= 1.101
		if err := checkStreamRegression(base, inc); err == nil || !strings.Contains(err.Error(), "incremental") {
			t.Fatalf("%s: guard did not trip on incremental steps/tick at +10.1%%: %v", r.Backend, err)
		}
		inc.IncrementalStepsPerTick = r.IncrementalStepsPerTick * 1.09
		if err := checkStreamRegression(base, inc); err != nil {
			t.Fatalf("%s: guard tripped inside the 10%% budget: %v", r.Backend, err)
		}
	}

	// Averages over another run length are not comparable.
	longer := local
	longer.Ticks, longer.ColdRuns = 500, 10
	longer.ColdStepsPerQuery *= 2
	longer.IncrementalStepsPerTick *= 2
	if err := checkStreamRegression(base, longer); err != nil {
		t.Fatalf("guard matched a baseline of another tick count: %v", err)
	}
}

// TestGuardAcceptsStepAverages: the step averages are the one kind of
// float the guard compares; the other float fields stay refused.
func TestGuardAcceptsStepAverages(t *testing.T) {
	fresh := benchReport{Scenario: "gbm", ColdStepsPerQuery: 3, IncrementalStepsPerTick: 2, FreshRootsPerTick: 1, Speedup: 1.5}
	for _, tag := range []string{"coldStepsPerQuery", "incrementalStepsPerTick"} {
		if err := checkStepRegression(nil, fresh, "stream", tag, true); err != nil {
			t.Fatalf("guard refused the step average %q: %v", tag, err)
		}
	}
	for _, tag := range []string{"speedup", "relErrTarget", "freshRootsPerTick"} {
		if err := checkStepRegression(nil, fresh, "stream", tag, true); err == nil {
			t.Fatalf("guard agreed to compare %q", tag)
		}
	}
}

// TestLoadBaseline pins the loader's contract: missing file guards
// nothing, malformed file is an error, not a silently skipped guard.
func TestLoadBaseline(t *testing.T) {
	if base, err := loadBaseline(filepath.Join(t.TempDir(), "absent.json")); err != nil || base != nil {
		t.Fatalf("missing baseline: got %v, %v; want nil, nil", base, err)
	}
	path := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(path); err == nil {
		t.Fatal("malformed baseline silently accepted")
	}
}
