package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"durability/internal/mc"
)

// The kernel's allocation guard, per differential fixture on the native
// path: a cold GMLSS.Run's allocations per root, and one standing-query
// top-up round's allocations and bytes. ns/step is not guarded here: it
// moves with host load more than with most commits, and
// BenchmarkGMLSSCold under scripts/abbench compares it between builds.

const (
	// allocRunSteps is the step budget of the measured cold run.
	allocRunSteps = 100_000
	// topUpRoots is one top-up round's roots, stream.DefaultTopUpRoots
	// (core cannot import stream).
	topUpRoots = 64
)

// kernelAllocs holds each fixture's figures as measured when the guard
// was written: a run's allocs/root, and a round's allocs and bytes.
// TestKernelAllocs fails past 1.10× each plus half an allocation, or
// plus 64 B — slack for figures this small, where a ratio alone is too
// twitchy.
var kernelAllocs = map[string]struct{ perRoot, roundAllocs, roundBytes float64 }{
	"gbm":         {0.0510, 2, 112},
	"walk":        {0.0781, 2, 112},
	"ar":          {0.0580, 2, 112},
	"cpp":         {0.0594, 2, 112},
	"chain":       {0.0625, 2, 112},
	"regime":      {0.0526, 2, 112},
	"queue":       {0.0547, 2, 112},
	"walk-custom": {0.0594, 2, 112},
}

// coldAllocsPerRoot runs g once to warm its workspace, then counts the
// next run's heap allocations per root. Mallocs deltas are exact counts.
func coldAllocsPerRoot(t *testing.T, g *GMLSS) float64 {
	t.Helper()
	ctx := context.Background()
	if _, err := g.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := g.Run(ctx)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(res.Paths)
}

// topUpRoundCost folds topUpRoots roots from g's pinned start into a
// reset pool, after a warm-up round, as exec's roundCost does: allocs
// from testing.AllocsPerRun, bytes as the least of several windows of
// the process-wide TotalAlloc, which a stray allocation elsewhere in the
// process can only raise.
func topUpRoundCost(t *testing.T, g *GMLSS) (allocs, bytes float64) {
	t.Helper()
	ctx := context.Background()
	_, initLevel, err := g.start()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(g.Plan.M(), initLevel)
	fold := func() {
		pool.Reset()
		if err := g.FoldRoots(ctx, 0, topUpRoots, &pool); err != nil {
			t.Fatal(err)
		}
	}
	fold()
	const runs, windows = 5, 3
	bytes = math.Inf(1)
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fold()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return testing.AllocsPerRun(runs, fold), bytes
}

// TestKernelAllocs guards the native path's allocations per fixture: a
// cold run amortizes pooled lane state to O(1) allocations per run, and a
// top-up round — roots folded in place from a pinned live state, the
// sampler's workspace outliving the round — costs a small fixed count.
func TestKernelAllocs(t *testing.T) {
	for _, fx := range kernelFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			want, ok := kernelAllocs[fx.name]
			if !ok {
				t.Fatalf("no allocation bounds for fixture %s", fx.name)
			}
			g := fx.gmlss(fx.proc, 1)
			g.Stop = mc.Budget{Steps: allocRunSteps}
			perRoot := coldAllocsPerRoot(t, g)

			g = fx.gmlss(fx.proc, 1)
			g.Start = fx.proc.Initial()
			allocs, bytes := topUpRoundCost(t, g)
			t.Logf("cold run %.4f allocs/root; top-up round %v allocs %v B", perRoot, allocs, bytes)

			if perRoot > 1.10*want.perRoot+0.5 {
				t.Errorf("a cold run allocates %.4f objects per root, want at most 1.10 × %.4f + 0.5", perRoot, want.perRoot)
			}
			if allocs > 1.10*want.roundAllocs+0.5 {
				t.Errorf("a top-up round allocates %v objects, want at most 1.10 × %v + 0.5", allocs, want.roundAllocs)
			}
			if bytes > 1.10*want.roundBytes+64 {
				t.Errorf("a top-up round allocates %v bytes, want at most 1.10 × %v + 64", bytes, want.roundBytes)
			}
		})
	}
}
