package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"durability/internal/mc"
	"durability/internal/persist"
	"durability/internal/replicate"
	"durability/internal/rng"
	"durability/internal/stochastic"
	"durability/internal/stream"
	"durability/internal/telemetry"
)

// runFailover measures the sharded standing-query engine under
// subscription load with a warm WAL-follower attached — the
// partitioned-serving headline. A ShardedEngine carries `subs`
// budget-capped subscriptions partitioned across `shards` consistent-hash
// shards, each shard journaling to its own checkpoint+WAL lineage; a
// replicate.Follower mirrors those lineages continuously and applies
// ticks as they ship. The primary ticks through `ticks` states (per-tick
// wall latency recorded), then dies without warning; the follower drains
// the shipped tail, a second engine is promoted, and the scenario
// reports:
//
//   - P99TickMillis: tail tick latency under the full subscription load
//     (wall time — machine-dependent, recorded but not guarded);
//   - FailoverMillis: wall time from the crash to the promoted engine's
//     first full set of maintained answers (also unguarded);
//   - FailoverSteps: fresh simulation steps the promoted engine pays
//     from its drained state to that first answer set (plan-search
//     steps excluded — see statsSum). Deterministic at the fixed seed —
//     scripts/bench guards it against regression like the batch and
//     recovery scenarios;
//   - Speedup: the warm takeover's step cost against rebuilding every
//     subscription from scratch (the initial registration cost).
//
// Subscriptions are deliberately cheap (tight step budgets, short
// horizons, 16 distinct plan shapes) so the scenario stresses the
// partitioning, journaling and replication machinery — fan-out, merge,
// per-lineage WAL traffic, snapshot shipping — rather than raw sampling
// throughput, which BenchmarkGMLSSCold times.
func runFailover(ctx context.Context, shards, subs, ticks int, seed uint64) (benchReport, error) {
	primaryDir, err := os.MkdirTemp("", "durbench-failover-primary-*")
	if err != nil {
		return benchReport{}, err
	}
	defer os.RemoveAll(primaryDir)
	mirrorDir, err := os.MkdirTemp("", "durbench-failover-mirror-*")
	if err != nil {
		return benchReport{}, err
	}
	defer os.RemoveAll(mirrorDir)

	// A livelier market than the maintenance scenario's: enough per-tick
	// drift that pools genuinely churn (roots drop, top-ups replenish), so
	// every tick — including the promoted engine's first — pays real
	// maintenance, not a no-op sweep over satisfied pools.
	const failoverSigma = 0.04
	market := &stochastic.GBM{S0: s0, Mu: mu, Sigma: failoverSigma}
	observers := map[string]stochastic.Observer{"price": stochastic.ScalarValue}
	resolver := func(streamName, modelID string) (stochastic.Process, map[string]stochastic.Observer, error) {
		if modelID != "gbm-bench" {
			return nil, nil, fmt.Errorf("unknown model %q", modelID)
		}
		return &stochastic.GBM{S0: s0, Mu: mu, Sigma: failoverSigma}, observers, nil
	}
	spec := func(i int) stream.SubSpec {
		return stream.SubSpec{
			Stream:     "bench",
			Obs:        stochastic.ScalarValue,
			ObserverID: "price",
			Beta:       104 + float64(i%16),
			Horizon:    64,
			Seed:       seed + uint64(i),
			// Heterogeneous survival tolerances (0.005–0.049). All
			// subscriptions watch the one feed, so with a single
			// tolerance the fleet's maintenance cost is all-or-nothing
			// per tick: an increment inside the tolerance costs ~0 for
			// everyone, one outside rebuilds every pool at once. Spread
			// tolerances mean every tick — including the promoted
			// engine's first — drops some slice of the fleet and pays
			// real top-up work.
			DriftTol: 0.005 + 0.004*float64(i%12),
			// RETarget alone, never a Budget: Budget.Done is cumulative
			// over the pool's life, so inside an Any it would satisfy
			// every refresh after the first and zero out the per-tick
			// maintenance this scenario exists to measure. A loose RE
			// target on a near-the-money threshold keeps the initial
			// pools small while leaving drift-driven top-ups real.
			Stop: mc.Any{mc.RETarget{Target: 0.35}},
		}
	}

	// The primary: subscriptions register before the journals attach, so
	// the checkpoint below carries every pool and the WAL carries only
	// tick records — exactly the steady state of a long-lived server.
	eng := stream.NewSharded(stream.Config{}, shards, 0)
	if err := eng.RegisterModel("bench", "gbm-bench", market, market.Initial()); err != nil {
		return benchReport{}, err
	}
	// Fresh (top-up) steps only, deliberately excluding SearchSteps: the
	// shards share one plan cache and fan ticks concurrently, so which
	// shard pays a given plan search — or whether two racing shards both
	// pay it — is timing-dependent. The plan that wins is identical
	// either way, so the top-up work it drives is deterministic; only
	// the deterministic quantity is guarded.
	statsSum := func(e *stream.ShardedEngine) int64 {
		return e.Stats().FreshSteps
	}
	for i := 0; i < subs; i++ {
		if _, err := eng.Subscribe(ctx, spec(i)); err != nil {
			return benchReport{}, fmt.Errorf("subscribing %d: %w", i, err)
		}
	}
	rebuildSteps := statsSum(eng) // what a from-scratch standby would pay

	// Each shard journals through the lineage durserve keeps, so the
	// snapshots shipped and restored are the daemon's ServingSnapshot.
	// No lineage carries plans: these engines keep private plan caches.
	names := make([]string, shards)
	for i := range names {
		names[i] = persist.ShardStoreName(i)
		st, err := persist.Open(filepath.Join(primaryDir, names[i]), persist.Options{Keep: 2})
		if err != nil {
			return benchReport{}, err
		}
		defer st.Close()
		l := &persist.Lineage{Store: st, Engine: eng.Shard(i), Resolve: resolver}
		// A fresh store still runs Recover: it positions the WAL cursor
		// (there is nothing to replay in a new directory).
		if _, err := l.Recover(); err != nil {
			return benchReport{}, err
		}
		eng.Shard(i).SetJournal(persist.EngineJournal{Store: st})
		if err := l.Checkpoint(); err != nil {
			return benchReport{}, err
		}
	}

	// The warm follower mirrors the lineages while the primary serves.
	// Its engines start empty: the replicated snapshots rebuild the
	// stream registration (via the resolver) along with every pool.
	standby := stream.NewSharded(stream.Config{}, shards, 0)
	hooks := func(store string) (replicate.StoreHooks, bool) {
		i, ok := persist.ParseShardStoreName(store)
		if !ok || i >= shards {
			return replicate.StoreHooks{}, false
		}
		l := &persist.Lineage{Engine: standby.Shard(i), Resolve: resolver}
		return replicate.StoreHooks{Restore: l.RestoreFile, Apply: l.Apply}, true
	}
	follower := replicate.NewFollower(replicate.Config{
		Source:   replicate.DirSource{Root: primaryDir, Stores: names},
		Dir:      mirrorDir,
		Hooks:    hooks,
		Interval: 10 * time.Millisecond,
	})
	followCtx, stopFollowing := context.WithCancel(ctx)
	defer stopFollowing()
	followDone := make(chan struct{})
	go func() {
		defer close(followDone)
		follower.Run(followCtx)
	}()

	// Tick through the trajectory under full load, recording per-tick
	// fresh steps and latency.
	feed := market.Initial()
	src := rng.NewStream(2026, 11)
	latencies := make([]float64, 0, ticks)
	stepHist := telemetry.NewHistogram(failoverStepBuckets)
	before := statsSum(eng)
	for tick := 1; tick <= ticks; tick++ {
		market.Step(feed, tick, src)
		began := time.Now()
		prior := statsSum(eng)
		if _, err := eng.Update(ctx, "bench", feed); err != nil {
			return benchReport{}, err
		}
		latencies = append(latencies, float64(time.Since(began).Milliseconds()))
		stepHist.Observe(float64(statsSum(eng) - prior))
	}
	tickSteps := statsSum(eng) - before

	// The crash: the primary is abandoned mid-flight — no final
	// checkpoint, no farewell to the follower.
	crashAt := time.Now()
	stopFollowing()
	<-followDone
	if err := follower.Drain(ctx); err != nil {
		return benchReport{}, fmt.Errorf("draining follower: %w", err)
	}
	follower.Close()

	// Promotion: the standby adopts the ID sequence and serves the next
	// tick. Everything the drain applied is deterministic state, so the
	// steps from here to the first answer set are a pure function of the
	// seed — the guarded number.
	standby.SyncNextSub()
	drained := statsSum(standby)
	market.Step(feed, ticks+1, src)
	refreshes, err := standby.Update(ctx, "bench", feed)
	if err != nil {
		return benchReport{}, fmt.Errorf("first post-failover tick: %w", err)
	}
	failoverMillis := float64(time.Since(crashAt).Milliseconds())
	if len(refreshes) != subs {
		return benchReport{}, fmt.Errorf("promoted engine refreshed %d subscriptions, want %d", len(refreshes), subs)
	}
	failoverSteps := statsSum(standby) - drained
	if failoverSteps <= 0 {
		failoverSteps = 1
	}

	return benchReport{
		Scenario:                fmt.Sprintf("failover gbm(s0=%.0f) subs=%d shards=%d ticks=%d", s0, subs, shards, ticks),
		Backend:                 "local",
		Ticks:                   ticks,
		RelErr:                  0,
		Subscriptions:           subs,
		ShardCount:              shards,
		FailoverSteps:           failoverSteps,
		FailoverMillis:          informational(failoverMillis),
		P99TickMillis:           informational(percentile(latencies, 0.99)),
		IncrementalStepsPerTick: stepAverage(tickSteps) / stepAverage(ticks),
		Speedup:                 float64(rebuildSteps) / float64(failoverSteps),
		StepsHistogram:          histJSON(stepHist),
		TickMillisHistogram:     tickMillis(latencies),
	}, nil
}

// percentile returns the p-th percentile (nearest-rank) of samples; with
// few samples it degrades to the max, which is the honest reading.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// failoverStepBuckets is the per-tick fresh-step ladder: powers of four
// up to about 1.1e9, past the 100k-subscription tick's ~1.8e8.
var failoverStepBuckets = telemetry.ExpBuckets(1, 4, 16)

// tickMillis buckets per-tick wall latencies (ms), so the report keeps
// the distribution, not just the p99. Like wallClock, it is informational.
func tickMillis(samples []float64) *wallClockHistogram {
	bounds := []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	counts := make([]uint64, len(bounds)+1)
	for _, s := range samples {
		i := sort.SearchFloat64s(bounds, s)
		counts[i]++
	}
	return &wallClockHistogram{histogramJSON: histogramJSON{Bounds: bounds, Counts: counts}, Informational: true}
}
