package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/persist"
	"durability/internal/rng"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/stream"
)

// toy shrinks a workload to smoke-test size: about 20 requests, or 50
// subscriptions and 5 ticks.
func toy(w workload) (workload, time.Duration) {
	if w.Kind != kindTicks {
		w.PerSecond = 20
		return w, time.Second
	}
	w.Subs, w.PerSecond = 50, 10
	if w.Churn > 0 {
		w.Churn = 2
	}
	return w, 500 * time.Millisecond
}

// TestPerfSmoke runs every workload at toy size through both paths — the
// untraced daemon over loopback and the traced in-process composition —
// and requires a clean correctness gate and every per-layer metric.
func TestPerfSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "durserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/durserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building durserve: %v\n%s", err, out)
	}
	e := env{durserve: bin, work: t.TempDir(), conns: runtime.NumCPU()}
	ctx := context.Background()
	for _, full := range workloads {
		w, window := toy(full)
		t.Run(w.Name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "trace.json")
			rep, err := runOnce(ctx, e, w, 1, window, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.problems {
				t.Error(p)
			}
			if rep.failed > 0 || rep.attempted < 5 {
				t.Errorf("%d of %d requests failed", rep.failed, rep.attempted)
			}
			names := map[string]bool{}
			for _, m := range rep.metrics {
				names[m.Name] = true
			}
			for _, want := range []string{"durserve.residual_ms_p50", "serve.plan_cache_hit_ratio", "exec.estimator_share", "core.sim_s", "stream.update_ms_p50", "persist.recover_s", "replicate.lag_records_max", "trace.residual_share", "trace.overhead_pct"} {
				if !names[want] {
					t.Errorf("no %s", want)
				}
			}
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ Spans []span }
			if err := json.Unmarshal(b, &trace); err != nil || len(trace.Spans) == 0 {
				t.Fatalf("trace file: %d spans, %v", len(trace.Spans), err)
			}
		})
	}
}

func randomGroups(n, m int) []core.Counters {
	src := rng.New(1)
	groups := make([]core.Counters, n)
	for i := range groups {
		c := core.NewCounters(m)
		for l := 1; l < m; l++ {
			c.Land[l] = float64(src.Intn(16))
			c.Skip[l] = float64(src.Intn(2))
			c.Mu[l] = c.Land[l] * src.Float64()
		}
		c.Hits = float64(src.Intn(4))
		groups[i] = c
	}
	return groups
}

// One estimator round's variance: 200 bootstrap replicates over every
// group a refresh or a sampling round has accumulated.
func BenchmarkBootstrapVarianceFromGroups(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			groups := randomGroups(n, 4)
			src := rng.New(2)
			for b.Loop() {
				core.BootstrapVarianceFromGroups(groups, 16, 4, 0, 200, src)
			}
		})
	}
}

func BenchmarkPlanCacheHit(b *testing.B) {
	cache := serve.NewPlanCache(0)
	key := cache.Key("gbm", "value", 1300, 250, 3, "greedy", 0)
	plan, err := core.NewPlan(0.8, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	cache.Warm(key, plan)
	miss := func(context.Context) (core.Plan, int64, error) {
		return core.Plan{}, 0, fmt.Errorf("searched on a warm key")
	}
	ctx := context.Background()
	for b.Loop() {
		if _, _, hit, err := cache.GetOrSearch(ctx, key, miss); !hit || err != nil {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

func openStore(b *testing.B, fs persist.FS) *persist.Store {
	st, err := persist.Open(b.TempDir(), persist.Options{FS: fs})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := st.Recover(&stream.EngineSnapshot{}, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// A tick's journal record: one WAL append, unsynced as in serving.
func BenchmarkStoreAppend(b *testing.B) {
	st := openStore(b, nil)
	ev := stream.EvUpdated{Name: streamName, State: &stochastic.Scalar{V: 100}}
	for b.Loop() {
		if _, err := st.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// A checkpoint of a 4,000-subscription engine (the tick workload's
// subscription spec), reported per subscription.
func BenchmarkCheckpoint4000Subs(b *testing.B) {
	const subs = 4000
	proc := &stochastic.GBM{S0: 100, Mu: 0.0003, Sigma: 0.01}
	eng := stream.NewEngine(stream.Config{})
	if err := eng.Register(streamName, proc, proc.Initial()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < subs; i++ {
		if _, err := eng.Subscribe(ctx, stream.SubSpec{
			Stream: streamName, Obs: stochastic.ScalarValue, ObserverID: "value",
			Beta: 104 + float64(i%16), Horizon: 64, Seed: uint64(i + 1),
			DriftTol: 0.005 + 0.004*float64(i%12),
			Stop:     mc.Any{mc.RETarget{Target: subTarget}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	fs := &countingFS{FS: persist.OSFS}
	st := openStore(b, fs)
	for b.Loop() {
		if err := st.Checkpoint(func() (any, error) { return eng.Snapshot(), nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fs.snap.Load())/float64(b.N)/subs, "bytes/sub")
}

func BenchmarkRingPlacement(b *testing.B) {
	ring := stream.NewRing(4, 0)
	var id uint64
	for b.Loop() {
		id++
		ring.Shard(streamName, id)
	}
}
