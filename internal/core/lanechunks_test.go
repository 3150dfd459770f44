package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"durability/internal/mc"
	"durability/internal/stochastic"
)

// A cancelled range must report only completed roots: runLaneChunks
// truncates to the contiguous finished prefix at every worker count, or
// callers would merge zero-valued roots into their counters. The roots
// run through forEachRoot (reference_test.go), which completes them one
// at a time on runLaneChunks' layout.
func TestRunLaneChunksCancelReturnsCompletedPrefix(t *testing.T) {
	for _, workers := range []int{1, 4, 7} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		out, err := forEachRoot(ctx, workers, 100, 100+512, func(idx int64) int64 {
			if calls.Add(1) == 40 {
				cancel()
			}
			return idx + 1 // sentinel: a completed root is never zero
		})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: cancelled run returned no error", workers)
		}
		if len(out) == 512 {
			t.Fatalf("workers=%d: cancelled run reported the full batch", workers)
		}
		for i, v := range out {
			if v != 100+int64(i)+1 {
				t.Fatalf("workers=%d: position %d holds %d — an unfinished root leaked into the prefix", workers, i, v)
			}
		}
	}
}

// Without cancellation every root completes at every worker count.
func TestRunLaneChunksComplete(t *testing.T) {
	for _, workers := range []int{1, 4, 7} {
		out, err := forEachRoot(context.Background(), workers, 0, 50, func(idx int64) int64 { return idx + 1 })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: got %d results, want 50", workers, len(out))
		}
		for i, v := range out {
			if v != int64(i)+1 {
				t.Fatalf("workers=%d: position %d holds %d", workers, i, v)
			}
		}
	}
}

// The prefix contract holds with helper kernels in the round: on four
// idle CPUs a ceiling of 4 borrows three helpers, and a cancel landing
// while they run still leaves only the contiguous completed prefix — in
// a bare range and in a g-MLSS run, whose prefix must replay exactly.
func TestCancelUnderHelpersReturnsCompletedPrefix(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	before := LentKernels()
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	out, err := forEachRoot(ctx, 4, 100, 100+512, func(idx int64) int64 {
		if calls.Add(1) == 200 {
			cancel()
		}
		return idx + 1
	})
	cancel()
	if LentKernels() == before {
		t.Fatal("no helper kernel joined the range on four idle CPUs")
	}
	if err == nil || len(out) == 512 {
		t.Fatalf("cancelled range returned %d roots, err %v", len(out), err)
	}
	for i, v := range out {
		if v != 100+int64(i)+1 {
			t.Fatalf("position %d holds %d — an unfinished root leaked into the prefix", i, v)
		}
	}

	fx := kernelFixtures(t)[1]
	g := fx.gmlss(fx.proc, 0)
	g.Stop = mc.Budget{Steps: math.MaxInt64}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var evals atomic.Int64
	inner := g.Query.Z
	g.Query.Z = func(s stochastic.State) float64 {
		if evals.Add(1) == 300_000 {
			cancel()
		}
		return inner(s)
	}
	res, err := g.Run(ctx)
	if err != context.Canceled || res.Paths == 0 {
		t.Fatalf("cancelled run: %d roots, err %v; want a completed prefix and context.Canceled", res.Paths, err)
	}
	// Groups of one round keep the reference's fold order the loop's.
	shard, err := fx.gmlss(fx.proc, 1).runRootsBy(context.Background(), 0, res.Paths, g.Batch, referenceGMLSS)
	if err != nil {
		t.Fatal(err)
	}
	initLevel := fx.plan.LevelOf(g.Query.ValueOf(fx.proc.Initial()))
	if got, want := res.P, EstimateFromCounters(shard.Agg, res.Paths, fx.plan.M(), initLevel); got != want {
		t.Errorf("prefix estimate %v != reference replay %v", got, want)
	}
	if res.Steps != shard.Steps {
		t.Errorf("prefix steps %d != reference replay %d", res.Steps, shard.Steps)
	}
}
