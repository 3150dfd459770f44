package core

import (
	"context"
	"sync/atomic"
	"testing"
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
