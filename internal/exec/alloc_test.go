package exec

import (
	"context"
	"math"
	"runtime"
	"testing"

	"durability/internal/core"
	"durability/internal/stochastic"
)

// topUpTask is a standing query's refresh round: a GBM pinned to a live
// state, on a three-boundary plan, stepped by one kernel so no helper
// goroutine is lent.
func topUpTask() Task {
	return Task{
		Proc:       &stochastic.GBM{S0: 100, Mu: 0.0003, Sigma: 0.01},
		Obs:        stochastic.ScalarValue,
		Start:      &stochastic.Scalar{V: 101},
		Beta:       104,
		Horizon:    250,
		Boundaries: []float64{0.98, 0.99, 0.995},
		Ratio:      3,
		Seed:       9,
		SimWorkers: 1,
	}
}

// roundCost measures one round of roots through FoldRoots (into a reset
// pool, as the estimator loop's round) and through RunRoots (per-root
// units), after a warm-up round: allocations and bytes per round. Bytes
// come from the process-wide TotalAlloc, which a stray allocation
// elsewhere in the process (a runtime or test-framework goroutine) can
// only raise, so they are the least of several windows: growth with
// roots shows in every window, a stray allocation in one.
func roundCost(t *testing.T, task Task, roots int64) (foldAllocs, foldBytes, unitAllocs float64) {
	t.Helper()
	ctx := context.Background()
	pool := core.NewPool(len(task.Boundaries)+1, 0)
	fold := func() {
		pool.Reset()
		if err := FoldRoots(ctx, Local{}, task, 0, roots, &pool); err != nil {
			t.Fatal(err)
		}
	}
	units := func() {
		if _, err := (Local{}).RunRoots(ctx, task, 0, roots, 1); err != nil {
			t.Fatal(err)
		}
	}
	fold()
	units()
	const runs, windows = 20, 5
	foldBytes = math.Inf(1)
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fold()
		}
		runtime.ReadMemStats(&after)
		foldBytes = min(foldBytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return testing.AllocsPerRun(runs, fold), foldBytes, testing.AllocsPerRun(runs, units)
}

// TestLocalRoundAllocs guards the reused sampler workspace: a local round
// allocates a small fixed number of objects whatever its roots — the
// kernels, lane sets, arena and per-root results outlive the round — and
// folding in place costs the same bytes at 256 roots as at 64. Per-root
// units (RunRoots) cost bytes per root, but still a fixed count.
func TestLocalRoundAllocs(t *testing.T) {
	task := topUpTask()
	if pool := core.NewPool(len(task.Boundaries)+1, 0); FoldRoots(context.Background(), Local{}, task, 0, 64, &pool) != nil || pool.Steps == 0 {
		t.Fatal("degenerate round")
	}
	fa64, fb64, ua64 := roundCost(t, task, 64)
	fa256, fb256, ua256 := roundCost(t, task, 256)
	t.Logf("fold: %v allocs %v B at 64 roots, %v allocs %v B at 256; units: %v and %v allocs", fa64, fb64, fa256, fb256, ua64, ua256)
	const budget = 6
	if fa64 > budget || fa256 != fa64 {
		t.Errorf("a folded round allocates %v objects at 64 roots and %v at 256, want the same count, at most %d", fa64, fa256, budget)
	}
	if fb256 != fb64 {
		t.Errorf("a folded round allocates %v bytes at 64 roots and %v at 256, want no growth with roots", fb64, fb256)
	}
	if ua64 > budget+4 || ua256 != ua64 {
		t.Errorf("a per-root-unit round allocates %v objects at 64 roots and %v at 256, want the same count, at most %d", ua64, ua256, budget+4)
	}
}
