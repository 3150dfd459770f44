package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
)

// guardBudget is the tolerated cost growth for the deterministic
// scenarios: a fresh run may cost at most 10% more steps than the
// committed baseline before the guard trips.
const guardBudget = 1.10

// loadBaseline reads a committed BENCH_serve.json. A missing file guards
// nothing (first run records, later runs enforce); a malformed one is an
// error — a guard silently skipped by a typo is worse than no guard.
func loadBaseline(path string) ([]benchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("durbench: reading baseline %s: %w", path, err)
	}
	var base []benchReport
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, fmt.Errorf("durbench: parsing baseline %s: %w", path, err)
	}
	return base, nil
}

// stepAverage is a deterministic mean of step counts (steps per tick,
// steps per query): a float the guard may compare, unlike the other
// float fields (speedups, targets, root averages).
type stepAverage float64

// stepCounter resolves one of benchReport's deterministic step counters
// by its JSON tag. Resolving reflectively is what lets the guard refuse
// wrong fields by construction rather than by reviewer vigilance: a
// *wallClock or *wallClockHistogram field is informational
// (machine-dependent wall time) and guarding it would flake on every
// slow CI runner, so asking for one is an error — not a skip — and the
// same goes for any field that is neither an int64 step count nor a
// stepAverage.
func stepCounter(r benchReport, jsonTag string) (float64, error) {
	v := reflect.ValueOf(r)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if tag != jsonTag {
			continue
		}
		f := v.Field(i)
		switch c := f.Interface().(type) {
		case *wallClock, *wallClockHistogram:
			return 0, fmt.Errorf("durbench: %q is an informational wall-clock reading — refusing to guard it", jsonTag)
		case int64:
			return float64(c), nil
		case stepAverage:
			return float64(c), nil
		}
		return 0, fmt.Errorf("durbench: %q is %s, not a step counter — refusing to guard it", jsonTag, f.Type())
	}
	return 0, fmt.Errorf("durbench: benchReport has no field %q", jsonTag)
}

// checkStepRegression is the shared >10% tripwire: the fresh scenario's
// step counter (named by JSON tag) may exceed the matching committed
// scenario's by at most the guard budget. Matching requires the same
// scenario name — and, when matchRE is set, the same relative-error
// target; a baseline without the counter (zero) guards nothing.
func checkStepRegression(base []benchReport, fresh benchReport, name, jsonTag string, matchRE bool) error {
	freshSteps, err := stepCounter(fresh, jsonTag)
	if err != nil {
		return err
	}
	for _, old := range base {
		oldSteps, err := stepCounter(old, jsonTag)
		if err != nil {
			return err
		}
		if oldSteps <= 0 || old.Scenario != fresh.Scenario || (matchRE && old.RelErr != fresh.RelErr) {
			continue
		}
		if freshSteps > guardBudget*oldSteps {
			return fmt.Errorf("durbench: %s scenario regressed: %s steps vs committed %s (+%.1f%%, >%.0f%% budget)",
				name, steps(freshSteps), steps(oldSteps), 100*(freshSteps/oldSteps-1), 100*(guardBudget-1))
		}
		fmt.Printf("durbench: %s guard ok: %s steps vs committed %s\n", name, steps(freshSteps), steps(oldSteps))
	}
	return nil
}

// steps formats a step count or average without exponent or padding.
func steps(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// checkStreamRegression guards a standing-query scenario's cold steps per
// query and incremental steps per tick. Both are averages over the run,
// so they compare only with a baseline of the same backend, tick count
// and cold-run count (the cold-run interval itself is not recorded).
func checkStreamRegression(base []benchReport, fresh benchReport) error {
	var same []benchReport
	for _, old := range base {
		if old.Backend == fresh.Backend && old.Ticks == fresh.Ticks && old.ColdRuns == fresh.ColdRuns {
			same = append(same, old)
		}
	}
	name := "stream(" + fresh.Backend + ")"
	if err := checkStepRegression(same, fresh, name+" cold", "coldStepsPerQuery", true); err != nil {
		return err
	}
	return checkStepRegression(same, fresh, name+" incremental", "incrementalStepsPerTick", true)
}

// checkBatchRegression guards the batch scenario's total steps — the CI
// tripwire for the batch path's cost.
func checkBatchRegression(base []benchReport, fresh benchReport) error {
	return checkStepRegression(base, fresh, "batch", "batchSteps", true)
}

// checkFailoverRegression guards the failover scenario's deterministic
// steps from the drained mirror to the promoted engine's first answer
// set. The wall-clock readings (failoverMillis, p99TickMillis) are
// *wallClock fields, which stepCounter refuses by construction.
func checkFailoverRegression(base []benchReport, fresh benchReport) error {
	return checkStepRegression(base, fresh, "failover", "failoverSteps", false)
}

// checkRecoveryRegression guards the recovery scenario's deterministic
// steps-to-first-answer.
func checkRecoveryRegression(base []benchReport, fresh benchReport) error {
	return checkStepRegression(base, fresh, "recovery", "recoverySteps", true)
}

// checkPlanQualityRegression guards both sides of the plan-quality
// scenario: the searched plan's steps-to-target (the search regressing)
// and the mis-specified plan's (the sampler's sensitivity to bad plans
// shifting).
func checkPlanQualityRegression(base []benchReport, fresh benchReport) error {
	if err := checkStepRegression(base, fresh, "plan-quality(searched)", "plannedSteps", true); err != nil {
		return err
	}
	return checkStepRegression(base, fresh, "plan-quality(misplanned)", "misplannedSteps", true)
}
