package cluster

import (
	"testing"

	"durability/internal/stochastic"
)

// shardAllocs measures one shard request answered by a warm worker:
// allocations per call after a warm-up call.
func shardAllocs(t *testing.T, w *Worker, roots int64) float64 {
	t.Helper()
	req := ShardRequest{
		Model:      "gbm",
		Beta:       104,
		Horizon:    250,
		Boundaries: []float64{0.98, 0.99, 0.995},
		Ratio:      3,
		Seed:       9,
		RootLo:     0,
		RootHi:     roots,
		GroupRoots: 1,
	}
	run := func() {
		var reply ShardReply
		if err := w.Run(req, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Result.Roots != roots {
			t.Fatalf("shard simulated %d roots, want %d", reply.Result.Roots, roots)
		}
	}
	run()
	return testing.AllocsPerRun(20, run)
}

// TestWarmShardAllocs guards the worker's build-once model table: a shard
// request reuses the model its first request built, so the sampler keeps
// its lane kernels, lane sets and arena across shards and a warm shard
// allocates a small fixed number of objects whatever its roots. A worker
// that rebuilt the model per request paid a full kernel rebuild on every
// shard (about 200 objects at 64 roots).
func TestWarmShardAllocs(t *testing.T) {
	builds := 0
	reg := Registry{
		"gbm": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			builds++
			return &stochastic.GBM{S0: 100, Mu: 0.0003, Sigma: 0.01}, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
	}
	w := NewWorker(reg, 1) // one kernel: no helper goroutine is lent
	a64 := shardAllocs(t, w, 64)
	a256 := shardAllocs(t, w, 256)
	t.Logf("warm shard: %v allocs at 64 roots, %v at 256", a64, a256)
	const budget = 10
	if a64 > budget || a256 != a64 {
		t.Errorf("a warm shard allocates %v objects at 64 roots and %v at 256, want the same count, at most %d", a64, a256, budget)
	}
	if builds != 1 {
		t.Errorf("the worker built its model %d times, want once", builds)
	}
}
