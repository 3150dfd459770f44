package mc

import (
	"math"
	"testing"
	"time"
)

func TestStopRules(t *testing.T) {
	r := Result{P: 0.1, Variance: 1e-6, Steps: 1000, Hits: 100}
	if !(Budget{Steps: 1000}).Done(r) {
		t.Error("budget at exactly the cap should fire")
	}
	if (Budget{Steps: 1001}).Done(r) {
		t.Error("budget below the cap fired")
	}
	// RE here = 1e-3/0.1 = 1%.
	if !(RETarget{Target: 0.02}).Done(r) {
		t.Error("RE target not met")
	}
	if (RETarget{Target: 0.005}).Done(r) {
		t.Error("RE target met too early")
	}
	// Few hits: never stop on quality rules.
	rFew := Result{P: 0.1, Variance: 1e-12, Hits: 2}
	if (RETarget{Target: 0.5}).Done(rFew) {
		t.Error("RE fired with 2 hits")
	}
	if (CITarget{Half: 0.5, Confidence: 0.95}).Done(rFew) {
		t.Error("CI fired with 2 hits")
	}
	// Zero estimate: never stop on quality rules.
	rZero := Result{P: 0, Variance: 0, Hits: 0}
	if (RETarget{Target: 0.5}).Done(rZero) || (CITarget{Half: 0.5, Confidence: 0.95}).Done(rZero) {
		t.Error("quality rule fired on zero estimate")
	}
}

func TestAnyAllCombinators(t *testing.T) {
	r := Result{P: 0.5, Variance: 1e-8, Steps: 500, Hits: 100}
	yes := Budget{Steps: 1}
	no := Budget{Steps: 1 << 50}
	if !(Any{no, yes}).Done(r) {
		t.Error("Any with one satisfied rule should fire")
	}
	if (Any{no, no}).Done(r) {
		t.Error("Any with no satisfied rules fired")
	}
	if (All{yes, no}).Done(r) {
		t.Error("All with one unsatisfied rule fired")
	}
	if !(All{yes, yes}).Done(r) {
		t.Error("All with all rules satisfied should fire")
	}
	if (All{}).Done(r) {
		t.Error("empty All fired")
	}
	for _, s := range []string{yes.String(), (Any{yes}).String(), (All{yes}).String(),
		(RETarget{Target: 0.1}).String(), (CITarget{Half: 0.01, Confidence: 0.95, Relative: true}).String()} {
		if s == "" {
			t.Error("empty rule description")
		}
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{P: 0.2, Variance: 0.0001, Elapsed: time.Second}
	ci := r.CI(0.95)
	if !ci.Contains(0.2) {
		t.Error("CI must contain the estimate")
	}
	if math.Abs(r.RelErr()-0.05) > 1e-12 {
		t.Errorf("RelErr = %v, want 0.05", r.RelErr())
	}
	if r.StdErr() != 0.01 {
		t.Errorf("StdErr = %v", r.StdErr())
	}
	if r.String() == "" {
		t.Error("empty result string")
	}
}
