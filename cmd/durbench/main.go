// Command durbench measures the serving layer's cost trajectory: how
// many simulator steps a query costs cold (durability.Run: level search
// plus full sampling) versus maintained incrementally as a standing
// query over a live stream (durability.Watch), at the same quality
// target — and, when -workers > 0, the same maintenance sharded across
// an in-process worker fleet through the execution seam of
// internal/exec. A third scenario measures the batch answering path: a
// 10-threshold ladder answered by one shared splitting run
// (durability.RunBatch) against ten independent Run calls. It writes the
// numbers as a JSON array — scripts/bench emits BENCH_serve.json at the
// repository root — so successive PRs can track the serve/stream/batch
// performance trajectory; with -baseline it doubles as a regression
// guard, failing when the batch scenario's deterministic step count
// regresses more than 10% against the committed numbers.
//
//	go run ./cmd/durbench -out BENCH_serve.json -baseline BENCH_serve.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"durability"
	"durability/internal/cluster"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/rng"
	"durability/internal/stochastic"
	"durability/internal/stream"
	"durability/internal/telemetry"
)

// histogramJSON is a telemetry histogram's deterministic face: bucket
// bounds and counts. Step counts are pure functions of the seed, so
// these distributions are comparable across machines and commits, which
// single per-scenario averages are not — a regression that moves the
// tail without moving the mean shows up here first.
type histogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

func histJSON(h *telemetry.Histogram) *histogramJSON {
	snap := h.Snapshot()
	return &histogramJSON{Bounds: snap.Bounds, Counts: snap.Counts}
}

// wallClock is a machine-dependent wall-time reading. Informational is
// always true in emitted reports: it marks the number as recorded for
// the trajectory only, and the guard refuses to compare any field of
// this type — a wall-clock regression gate would flake on every slow CI
// runner.
type wallClock struct {
	Millis        float64 `json:"millis"`
	Informational bool    `json:"informational"`
}

func informational(ms float64) *wallClock {
	return &wallClock{Millis: ms, Informational: true}
}

// wallClockHistogram is a distribution of wall-time readings in ms,
// informational like wallClock, and refused by the guard the same way.
type wallClockHistogram struct {
	histogramJSON
	Informational bool `json:"informational"`
}

// benchReport is one entry of the BENCH_serve.json array.
type benchReport struct {
	Scenario string  `json:"scenario"`
	Backend  string  `json:"backend"`
	Ticks    int     `json:"ticks,omitempty"`
	RelErr   float64 `json:"relErrTarget"`

	// Cold path: durability.Run at sampled ticks (local scenario only).
	ColdRuns          int         `json:"coldRuns,omitempty"`
	ColdStepsPerQuery stepAverage `json:"coldStepsPerQuery,omitempty"`

	// Incremental path: standing-query maintenance.
	IncrementalStepsPerTick stepAverage `json:"incrementalStepsPerTick,omitempty"`
	FreshRootsPerTick       float64     `json:"freshRootsPerTick,omitempty"`
	Replans                 int64       `json:"replans,omitempty"`

	// Batch path: one shared splitting run answering a threshold ladder
	// (the batch scenario only). BatchSteps is deterministic at a fixed
	// seed, which is what lets scripts/bench guard it against regression.
	Thresholds    int   `json:"thresholds,omitempty"`
	BatchSteps    int64 `json:"batchSteps,omitempty"`
	PerQuerySteps int64 `json:"perQuerySteps,omitempty"`

	// Recovery path: a durable session crash-restarted from its data
	// directory (the recovery scenario only). RecoverySteps is the
	// simulator cost from reopening to the first maintained answer —
	// WAL-tail replay plus the first tick's top-up over the restored
	// pool; ColdRestartSteps is what a server with no data directory pays
	// for the same first answer (full level search plus pool fill). Both
	// are deterministic at a fixed seed, so scripts/bench guards
	// RecoverySteps against regression alongside the batch scenario.
	RecoverySteps    int64 `json:"recoverySteps,omitempty"`
	ColdRestartSteps int64 `json:"coldRestartSteps,omitempty"`

	// Failover path: a sharded engine under subscription load with a warm
	// WAL follower, crashed and promoted (the failover scenario only).
	// FailoverSteps — the simulator cost from the drained mirror to the
	// promoted engine's first full answer set — is deterministic at the
	// fixed seed and guarded like the batch and recovery scenarios;
	// FailoverMillis and P99TickMillis are wall-clock readings, marked
	// informational in the JSON so nothing — human or guard — mistakes
	// them for comparable numbers.
	Subscriptions  int        `json:"subscriptions,omitempty"`
	ShardCount     int        `json:"shardCount,omitempty"`
	FailoverSteps  int64      `json:"failoverSteps,omitempty"`
	FailoverMillis *wallClock `json:"failoverMillis,omitempty"`
	P99TickMillis  *wallClock `json:"p99TickMillis,omitempty"`

	// Plan-quality path: the same query answered under the searched level
	// plan and under a deliberately mis-specified one, steps to the same
	// relative-error target each (the plan-quality scenario only). Both
	// are deterministic at the fixed seed and sit under the >10% guard —
	// PlannedSteps regressing means the search got worse, MisplannedSteps
	// moving means the sampler's sensitivity to bad plans changed.
	PlannedSteps    int64 `json:"plannedSteps,omitempty"`
	MisplannedSteps int64 `json:"misplannedSteps,omitempty"`

	// The headline: cold steps per query divided by incremental steps per
	// tick (stream scenarios; the sharded scenario reuses the local cold
	// baseline — the cold path is the same either way), per-query steps
	// divided by batch steps (batch scenario), cold-restart steps divided
	// by recovery steps (recovery scenario), or from-scratch rebuild steps
	// divided by failover steps (failover scenario).
	Speedup float64 `json:"speedup"`

	// StepsHistogram is the scenario's per-unit step distribution:
	// per-tick maintenance steps (stream scenarios), per-threshold
	// independent-query steps (batch), the recovery/cold-restart pair
	// (recovery), or per-tick fresh steps under load (failover).
	// Deterministic at the fixed seed.
	StepsHistogram *histogramJSON `json:"stepsHistogram,omitempty"`

	// TickMillisHistogram is the failover scenario's per-tick wall
	// latency distribution (the readings behind p99TickMillis).
	TickMillisHistogram *wallClockHistogram `json:"tickMillisHistogram,omitempty"`
}

const (
	s0      = 100.0
	beta    = 130.0
	horizon = 250
	mu      = 0.0003
	sigma   = 0.01
)

func main() {
	var (
		out       = flag.String("out", "BENCH_serve.json", "output path")
		ticks     = flag.Int("ticks", 500, "market ticks to maintain through")
		coldEvery = flag.Int("cold-every", 50, "cold re-run sampling interval (ticks)")
		re        = flag.Float64("re", 0.10, "relative-error target for both paths")
		seed      = flag.Uint64("seed", 42, "base random seed")
		workers   = flag.Int("workers", 2, "in-process shard workers for the sharded scenario (0 = skip)")
		baseline  = flag.String("baseline", "", "committed BENCH_serve.json to guard against: fail if a guarded step counter regresses >10%")

		failoverSubs   = flag.Int("failover-subs", 100_000, "failover scenario: standing subscriptions on the sharded engine (0 = skip the scenario)")
		failoverShards = flag.Int("failover-shards", 4, "failover scenario: engine shards")
		failoverTicks  = flag.Int("failover-ticks", 4, "failover scenario: ticks under load before the crash")
	)
	flag.Parse()

	// Read the committed baseline before anything overwrites it — the
	// guard compares against what was checked in, not what this run wrote.
	var base []benchReport
	if *baseline != "" {
		var err error
		if base, err = loadBaseline(*baseline); err != nil {
			log.Fatal(err)
		}
	}

	ctx := context.Background()
	market := &durability.GBM{S0: s0, Mu: mu, Sigma: sigma}
	query := durability.Query{Z: durability.ScalarValue, Beta: beta, Horizon: horizon, ZName: "price"}
	target := []durability.Option{
		durability.WithRelativeErrorTarget(*re),
		durability.WithSeed(*seed),
	}

	session, err := durability.NewSession(market, target...)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := session.Watch(ctx, "bench", query)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	feed := market.Initial()
	src := rng.NewStream(2026, 0)
	tickHist := telemetry.NewHistogram(telemetry.SizeBuckets)
	var incSteps, coldSteps, freshRoots int64
	coldRuns := 0
	for tick := 1; tick <= *ticks; tick++ {
		market.Step(feed, tick, src)
		refreshes, err := session.Publish(ctx, "bench", feed)
		if err != nil {
			log.Fatal(err)
		}
		if refreshes[0].Err != nil {
			log.Fatal(refreshes[0].Err)
		}
		ans := refreshes[0].Answer
		incSteps += ans.FreshSteps + ans.SearchSteps
		freshRoots += ans.FreshRoots
		tickHist.Observe(float64(ans.FreshSteps + ans.SearchSteps))

		if tick%*coldEvery != 0 || ans.Satisfied {
			continue
		}
		price := durability.ScalarValue(feed)
		cold, err := durability.Run(ctx,
			&durability.GBM{S0: price, Mu: market.Mu, Sigma: market.Sigma}, query, target...)
		if err != nil {
			log.Fatal(err)
		}
		coldSteps += cold.Steps
		coldRuns++
	}
	if coldRuns == 0 {
		log.Fatal("durbench: no cold run completed (stream stayed above threshold?)")
	}

	local := benchReport{
		Scenario:                fmt.Sprintf("gbm(s0=%.0f) beta=%.0f horizon=%d", s0, beta, horizon),
		Backend:                 "local",
		Ticks:                   *ticks,
		RelErr:                  *re,
		ColdRuns:                coldRuns,
		ColdStepsPerQuery:       stepAverage(coldSteps) / stepAverage(coldRuns),
		IncrementalStepsPerTick: stepAverage(incSteps) / stepAverage(*ticks),
		FreshRootsPerTick:       float64(freshRoots) / float64(*ticks),
		Replans:                 session.StreamStats().Replans,
		StepsHistogram:          histJSON(tickHist),
	}
	local.Speedup = float64(local.ColdStepsPerQuery / local.IncrementalStepsPerTick)
	reports := []benchReport{local}
	if err := checkStreamRegression(base, local); err != nil {
		log.Fatal(err)
	}

	if *workers > 0 {
		sharded, err := runSharded(ctx, *workers, *ticks, *re, *seed)
		if err != nil {
			log.Fatal(err)
		}
		sharded.ColdRuns = 0
		sharded.Speedup = float64(local.ColdStepsPerQuery / sharded.IncrementalStepsPerTick)
		// The two scenarios resolve their subscription settings through
		// different paths (the public Session options vs a hand-built
		// stream.SubSpec in runSharded); the headline claim is that equal
		// settings make the backends' costs bit-for-bit equal, so if the
		// paths ever drift apart the run fails rather than quietly
		// compare two configurations.
		if sharded.IncrementalStepsPerTick != local.IncrementalStepsPerTick {
			log.Fatalf("durbench: sharded scenario diverged from local (%.3f vs %.3f steps/tick) — runSharded's SubSpec no longer mirrors the Session defaults, or the backends are no longer bit-for-bit equal",
				sharded.IncrementalStepsPerTick, local.IncrementalStepsPerTick)
		}
		reports = append(reports, sharded)
		if err := checkStreamRegression(base, sharded); err != nil {
			log.Fatal(err)
		}
	}

	batch, err := runBatchLadder(ctx, *re, *seed)
	if err != nil {
		log.Fatal(err)
	}
	reports = append(reports, batch)
	if err := checkBatchRegression(base, batch); err != nil {
		log.Fatal(err)
	}

	recovery, err := runRecovery(ctx, *re, *seed)
	if err != nil {
		log.Fatal(err)
	}
	reports = append(reports, recovery)
	if err := checkRecoveryRegression(base, recovery); err != nil {
		log.Fatal(err)
	}

	planQuality, err := runPlanQuality(ctx, *re, *seed)
	if err != nil {
		log.Fatal(err)
	}
	reports = append(reports, planQuality)
	if err := checkPlanQualityRegression(base, planQuality); err != nil {
		log.Fatal(err)
	}

	if *failoverSubs > 0 {
		failover, err := runFailover(ctx, *failoverShards, *failoverSubs, *failoverTicks, *seed)
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, failover)
		if err := checkFailoverRegression(base, failover); err != nil {
			log.Fatal(err)
		}
	}

	blob, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		if r.BatchSteps > 0 {
			fmt.Printf("durbench[%s]: batch %d steps for %d thresholds (%.1fx vs per-query %d steps)\n",
				r.Backend, r.BatchSteps, r.Thresholds, r.Speedup, r.PerQuerySteps)
			continue
		}
		if r.RecoverySteps > 0 {
			fmt.Printf("durbench[%s]: recovery warm-start %d steps to first answer (%.1fx vs cold restart %d steps)\n",
				r.Backend, r.RecoverySteps, r.Speedup, r.ColdRestartSteps)
			continue
		}
		if r.FailoverSteps > 0 {
			fmt.Printf("durbench[%s]: failover %d subs/%d shards: first answers %.0fms after crash, %d steps (%.1fx vs rebuild), p99 tick %.0fms\n",
				r.Backend, r.Subscriptions, r.ShardCount, r.FailoverMillis.Millis, r.FailoverSteps, r.Speedup, r.P99TickMillis.Millis)
			continue
		}
		if r.PlannedSteps > 0 {
			fmt.Printf("durbench[%s]: plan-quality searched plan %d steps vs mis-specified %d (%.1fx penalty)\n",
				r.Backend, r.PlannedSteps, r.MisplannedSteps, r.Speedup)
			continue
		}
		fmt.Printf("durbench[%s]: incremental %.0f steps/tick (%.1fx vs cold %.0f steps/query)\n",
			r.Backend, r.IncrementalStepsPerTick, r.Speedup, local.ColdStepsPerQuery)
	}
	fmt.Printf("durbench: wrote %d scenarios -> %s\n", len(reports), *out)
}

// runBatchLadder measures the batch answering path: a 10-threshold profit
// ladder over the GBM market answered by one shared splitting run
// (durability.RunBatch, the examples/threshold-ladder scenario), against
// ten independent durability.Run calls at the same relative-error target.
// Both sides are deterministic at the fixed seed, so the numbers are
// comparable across machines and guardable across commits.
func runBatchLadder(ctx context.Context, re float64, seed uint64) (benchReport, error) {
	market := &durability.GBM{S0: s0, Mu: mu, Sigma: sigma}
	const thresholds = 10
	queries := make([]durability.Query, thresholds)
	for i := range queries {
		queries[i] = durability.Query{
			Z: durability.ScalarValue, Beta: 112 + 2*float64(i), Horizon: horizon, ZName: "price",
		}
	}
	opts := []durability.Option{
		durability.WithRelativeErrorTarget(re),
		durability.WithSeed(seed),
	}
	session, err := durability.NewSession(market, opts...)
	if err != nil {
		return benchReport{}, err
	}
	if _, err := session.RunBatch(ctx, queries); err != nil {
		return benchReport{}, err
	}
	batchSteps := session.Stats().TotalSteps()

	var perQuery int64
	queryHist := telemetry.NewHistogram(telemetry.SizeBuckets)
	for _, q := range queries {
		res, err := durability.Run(ctx, market, q, opts...)
		if err != nil {
			return benchReport{}, err
		}
		perQuery += res.Steps
		queryHist.Observe(float64(res.Steps))
	}
	return benchReport{
		Scenario:       fmt.Sprintf("batch-ladder gbm(s0=%.0f) betas=112..130 horizon=%d", s0, horizon),
		Backend:        "local",
		RelErr:         re,
		Thresholds:     thresholds,
		BatchSteps:     batchSteps,
		PerQuerySteps:  perQuery,
		Speedup:        float64(perQuery) / float64(batchSteps),
		StepsHistogram: histJSON(queryHist),
	}, nil
}

// runRecovery measures the persist layer's restart economics: a durable
// session (checkpoint + WAL in a scratch directory) maintains the
// standing query through a tick history, checkpoints on its normal
// cadence, takes a few more ticks and dies without warning. The
// restarted server's cost to its first maintained answer — WAL-tail
// replay plus one top-up over the restored root pool — is compared with
// a cold restart paying the full level search and pool fill at the same
// market state. Deterministic at the fixed seed, so regressions trip the
// baseline guard.
func runRecovery(ctx context.Context, re float64, seed uint64) (benchReport, error) {
	const (
		recoveryTicks = 60
		tailTicks     = 5 // ticks between the last checkpoint and the crash
	)
	dir, err := os.MkdirTemp("", "durbench-recovery-*")
	if err != nil {
		return benchReport{}, err
	}
	defer os.RemoveAll(dir)

	market := &durability.GBM{S0: s0, Mu: mu, Sigma: sigma}
	query := durability.Query{Z: durability.ScalarValue, Beta: beta, Horizon: horizon, ZName: "price"}
	observers := map[string]durability.Observer{"price": durability.ScalarValue}
	opts := []durability.Option{
		durability.WithRelativeErrorTarget(re),
		durability.WithSeed(seed),
	}

	prices := make([]float64, recoveryTicks+1)
	feed := market.Initial()
	src := rng.NewStream(2026, 7)
	for i := range prices {
		market.Step(feed, i+1, src)
		prices[i] = durability.ScalarValue(feed)
	}

	session, err := durability.OpenSession(market, dir, observers, opts...)
	if err != nil {
		return benchReport{}, err
	}
	if _, err := session.Watch(ctx, "bench", query); err != nil {
		return benchReport{}, err
	}
	var atCheckpoint durability.StreamStats
	for i := 0; i < recoveryTicks; i++ {
		if _, err := session.Publish(ctx, "bench", &durability.Scalar{V: prices[i]}); err != nil {
			return benchReport{}, err
		}
		if i == recoveryTicks-tailTicks-1 {
			if err := session.Checkpoint(); err != nil {
				return benchReport{}, err
			}
			atCheckpoint = session.StreamStats()
		}
	}
	// The crash: the session is abandoned — no Close, no final checkpoint.

	recovered, err := durability.OpenSession(market, dir, observers, opts...)
	if err != nil {
		return benchReport{}, err
	}
	defer recovered.Close()
	if _, err := recovered.Publish(ctx, "bench", &durability.Scalar{V: prices[recoveryTicks]}); err != nil {
		return benchReport{}, err
	}
	after := recovered.StreamStats()
	recoverySteps := (after.FreshSteps + after.SearchSteps) - (atCheckpoint.FreshSteps + atCheckpoint.SearchSteps)

	cold, err := durability.NewSession(market, opts...)
	if err != nil {
		return benchReport{}, err
	}
	if _, err := cold.Publish(ctx, "bench", &durability.Scalar{V: prices[recoveryTicks]}); err != nil {
		return benchReport{}, err
	}
	coldSub, err := cold.Watch(ctx, "bench", query)
	if err != nil {
		return benchReport{}, err
	}
	defer coldSub.Close()
	coldSteps := coldSub.Answer().FreshSteps + coldSub.Answer().SearchSteps

	if recoverySteps <= 0 {
		recoverySteps = 1 // a fully satisfied restored pool: count the lookup as one step
	}
	pairHist := telemetry.NewHistogram(telemetry.SizeBuckets)
	pairHist.Observe(float64(recoverySteps))
	pairHist.Observe(float64(coldSteps))
	return benchReport{
		Scenario:         fmt.Sprintf("recovery gbm(s0=%.0f) beta=%.0f horizon=%d ticks=%d tail=%d", s0, beta, horizon, recoveryTicks, tailTicks),
		Backend:          "local",
		RelErr:           re,
		RecoverySteps:    recoverySteps,
		ColdRestartSteps: coldSteps,
		Speedup:          float64(coldSteps) / float64(recoverySteps),
		StepsHistogram:   histJSON(pairHist),
	}, nil
}

// runSharded maintains the same standing query over the cluster
// execution backend: n in-process rpc workers on loopback listeners,
// each rebuilding the market model from its registry. The live feed is
// driven by the same seeds as the local scenario, so the maintained
// answers — not just the costs — are directly comparable.
func runSharded(ctx context.Context, n, ticks int, re float64, seed uint64) (benchReport, error) {
	// The observer is registered under the name the local scenario keys
	// its plans with ("price", the query's ZName), so both scenarios
	// search identical plans and their costs compare like for like.
	reg := cluster.Registry{
		"gbm-bench": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return &stochastic.GBM{S0: s0, Mu: mu, Sigma: sigma}, map[string]stochastic.Observer{"price": stochastic.ScalarValue}, nil
		},
	}
	addrs, stop, err := cluster.ServeLocal(reg, n, 2)
	if err != nil {
		return benchReport{}, err
	}
	defer stop()
	backend := exec.NewCluster(addrs...)
	defer backend.Close()

	market := &stochastic.GBM{S0: s0, Mu: mu, Sigma: sigma}
	eng := stream.NewEngine(stream.Config{Exec: backend})
	if err := eng.RegisterModel("bench", "gbm-bench", market, market.Initial()); err != nil {
		return benchReport{}, err
	}
	sub, err := eng.Subscribe(ctx, stream.SubSpec{
		Stream:     "bench",
		Obs:        stochastic.ScalarValue,
		ObserverID: "price",
		Beta:       beta,
		Horizon:    horizon,
		Seed:       seed,
		Stop:       mc.Any{mc.RETarget{Target: re}},
	})
	if err != nil {
		return benchReport{}, err
	}
	defer sub.Close()

	feed := market.Initial()
	src := rng.NewStream(2026, 0)
	tickHist := telemetry.NewHistogram(telemetry.SizeBuckets)
	var incSteps, freshRoots int64
	for tick := 1; tick <= ticks; tick++ {
		market.Step(feed, tick, src)
		refreshes, err := eng.Update(ctx, "bench", feed)
		if err != nil {
			return benchReport{}, err
		}
		if refreshes[0].Err != nil {
			return benchReport{}, refreshes[0].Err
		}
		ans := refreshes[0].Answer
		incSteps += ans.FreshSteps + ans.SearchSteps
		freshRoots += ans.FreshRoots
		tickHist.Observe(float64(ans.FreshSteps + ans.SearchSteps))
	}
	return benchReport{
		Scenario:                fmt.Sprintf("gbm(s0=%.0f) beta=%.0f horizon=%d", s0, beta, horizon),
		Backend:                 fmt.Sprintf("cluster(%d workers)", n),
		Ticks:                   ticks,
		RelErr:                  re,
		IncrementalStepsPerTick: stepAverage(incSteps) / stepAverage(ticks),
		FreshRootsPerTick:       float64(freshRoots) / float64(ticks),
		Replans:                 eng.Stats().Replans,
		StepsHistogram:          histJSON(tickHist),
	}, nil
}
