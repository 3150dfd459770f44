package exec

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// ladderTask is chainTask with per-level ratios set, as batch covering
// plans ship them: both boundaries are answerable thresholds.
func ladderTask() Task {
	t := chainTask()
	t.Ratios = []int{2, 3}
	return t
}

func ladderTargets(stop mc.StopRule) []core.Target {
	return []core.Target{
		{Level: 1, Stop: stop},
		{Level: 2, Stop: stop},
		{Level: 3, Stop: stop},
	}
}

// Golden determinism: a same-seed batch run must produce bit-for-bit
// identical per-threshold answers on the local backend and on 1-, 2- and
// 3-worker clusters — estimates, variances and cost accounting alike.
func TestSampleBatchLocalVsClusterGolden(t *testing.T) {
	task := ladderTask()
	opt := SampleOptions{Stop: mc.Budget{Steps: 400_000}}
	stop := mc.Budget{Steps: 400_000}

	local, err := SampleBatch(context.Background(), Local{}, task, ladderTargets(stop), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != 3 {
		t.Fatalf("%d results for 3 targets", len(local))
	}
	for n := 1; n <= 3; n++ {
		backend := NewCluster(startWorkers(t, chainRegistry(), n)...)
		clus, err := SampleBatch(context.Background(), backend, task, ladderTargets(stop), opt)
		backend.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range local {
			if clus[i].P != local[i].P || clus[i].Variance != local[i].Variance {
				t.Fatalf("%d workers, target %d: (P=%v, Var=%v) differs from local (P=%v, Var=%v)",
					n, i, clus[i].P, clus[i].Variance, local[i].P, local[i].Variance)
			}
			if clus[i].Steps != local[i].Steps || clus[i].Paths != local[i].Paths || clus[i].Hits != local[i].Hits {
				t.Fatalf("%d workers, target %d: cost (%d steps, %d paths, %d hits) differs from local (%d, %d, %d)",
					n, i, clus[i].Steps, clus[i].Paths, clus[i].Hits, local[i].Steps, local[i].Paths, local[i].Hits)
			}
		}
	}
	// Sanity: the lattice is genuinely multi-threshold — strictly easier
	// thresholds estimate strictly higher here.
	if !(local[0].P > local[1].P && local[1].P > local[2].P && local[2].P > 0) {
		t.Fatalf("degenerate lattice estimates: %v %v %v", local[0].P, local[1].P, local[2].P)
	}
}

// A worker dying mid-batch must cost a retry, not the answers: with one
// worker slamming connections shut, the batch still returns bit-for-bit
// the local results.
func TestSampleBatchSurvivesDeadWorker(t *testing.T) {
	task := ladderTask()
	opt := SampleOptions{Stop: mc.Budget{Steps: 400_000}}
	stop := mc.Budget{Steps: 400_000}

	local, err := SampleBatch(context.Background(), Local{}, task, ladderTargets(stop), opt)
	if err != nil {
		t.Fatal(err)
	}
	healthy := startWorkers(t, chainRegistry(), 1)
	backend := NewCluster(healthy[0], slammingListener(t))
	defer backend.Close()
	done := make(chan error, 1)
	var clus []mc.Result
	go func() {
		var err error
		clus, err = SampleBatch(context.Background(), backend, task, ladderTargets(stop), opt)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("batch failed instead of retrying on the live worker: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("batch hung after worker drop")
	}
	for i := range local {
		if clus[i].P != local[i].P || clus[i].Steps != local[i].Steps || clus[i].Paths != local[i].Paths {
			t.Fatalf("target %d after retry (P=%v, steps=%d) differs from local (P=%v, steps=%d)",
				i, clus[i].P, clus[i].Steps, local[i].P, local[i].Steps)
		}
	}
}

// Quality-targeted batches stop when every threshold meets its target,
// and the easy thresholds' answers still track the exact chain values.
func TestSampleBatchQualityTargets(t *testing.T) {
	const horizon = 50
	chain := stochastic.BirthDeathChain(10, 0.45, 0)
	exactFor := func(beta int) float64 {
		target := map[int]bool{}
		for i := beta; i < 10; i++ {
			target[i] = true
		}
		return chain.HitProbability(target, horizon)
	}
	task := ladderTask()
	stop := mc.Any{mc.RETarget{Target: 0.1}, mc.Budget{Steps: 20_000_000}}
	res, err := SampleBatch(context.Background(), Local{}, task, ladderTargets(stop), SampleOptions{Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	for i, beta := range []int{3, 5, 7} {
		want := exactFor(beta)
		if math.Abs(res[i].P-want) > 0.25*want {
			t.Errorf("beta %d: estimate %v, exact %v", beta, res[i].P, want)
		}
		if res[i].Hits == 0 || res[i].Steps == 0 {
			t.Errorf("beta %d: accounting missing: %+v", beta, res[i])
		}
	}
}

// groupingExec is a broken backend: it folds each range into one unit
// whatever grouping the caller asks for.
type groupingExec struct{ Local }

func (g groupingExec) RunRoots(ctx context.Context, t Task, lo, hi int64, _ int) (core.ShardResult, error) {
	return g.Local.RunRoots(ctx, t, lo, hi, int(hi-lo))
}

// The moments model one unit per root; a backend returning coarser
// groups must fail the batch rather than skew its variances.
func TestSampleBatchRejectsGroupedUnits(t *testing.T) {
	_, err := SampleBatch(context.Background(), groupingExec{}, ladderTask(), ladderTargets(mc.Budget{Steps: 400_000}), SampleOptions{})
	if err == nil || !strings.Contains(err.Error(), "one per root") {
		t.Fatalf("grouped units: err = %v, want the loop's one-unit-per-root error", err)
	}
}

func TestSampleBatchValidation(t *testing.T) {
	ctx := context.Background()
	task := ladderTask()
	stop := mc.Budget{Steps: 1000}
	if _, err := SampleBatch(ctx, Local{}, task, nil, SampleOptions{}); err == nil {
		t.Error("empty target set accepted")
	}
	if _, err := SampleBatch(ctx, Local{}, task, []core.Target{{Level: 1}}, SampleOptions{}); err == nil {
		t.Error("target without stop rule accepted")
	}
	for _, lvl := range []int{0, 4} {
		if _, err := SampleBatch(ctx, Local{}, task, []core.Target{{Level: lvl, Stop: stop}}, SampleOptions{}); err == nil {
			t.Errorf("out-of-range target level %d accepted", lvl)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := SampleBatch(cancelled, Local{}, task, ladderTargets(stop), SampleOptions{}); err == nil {
		t.Error("cancelled context not surfaced")
	}
}
