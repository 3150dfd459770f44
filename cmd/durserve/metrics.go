package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"durability/internal/planstats"
	"durability/internal/replicate"
	"durability/internal/serve"
	"durability/internal/telemetry"
)

// Readiness states, in lifecycle order. The daemon starts serving its
// listener immediately but gates the serving endpoints until recovery
// finishes, so a restarted instance is reachable (probes see progress)
// without answering queries from a half-replayed state.
const (
	stateStarting  = "starting"
	stateReplaying = "replaying-wal"
	stateFollowing = "following"
	stateReady     = "ready"
)

// telemetrySet bundles the daemon's observability: the metric registry
// behind GET /metrics, the lifecycle-span tracer, the standing-query
// engine metrics, the per-worker shard attribution and the readiness
// state machine. Everything in here is telemetry — none of it is
// reachable from checkpoints, answers or any other deterministic state.
type telemetrySet struct {
	registry *telemetry.Registry
	tracer   *telemetry.Tracer
	engine   *telemetry.EngineMetrics
	workers  *telemetry.WorkerMetrics
	replica  *telemetry.ReplicaMetrics

	state atomic.Value // readiness: starting → replaying-wal → ready

	recoveries      *telemetry.Counter
	walReplayed     *telemetry.Counter
	recoverySeconds *telemetry.Histogram
	followerApply   *telemetry.Histogram // per applied WAL record, on a follower

	// Plan-quality introspection sources (see plans.go): the ledger and
	// threshold installed by bindPlanLedger, the cache installed by bind.
	// All written once during wiring, before the listener serves.
	ledger         *planstats.Ledger
	driftThreshold float64
	planCache      *serve.PlanCache

	// lagsFn, installed by bindFollowerMetrics, feeds the follower's
	// structured /readyz body alongside the lag gauges.
	lagsFn func() map[string]replicate.Lag
}

// lifecycleStages is every span stage the serving path can book.
// newTelemetry pre-creates all of them so the exposed metric set is a
// function of the build, not of which code paths traffic happened to
// exercise — the golden identical-metric-set test depends on this.
var lifecycleStages = []string{
	telemetry.StageAdmission,
	telemetry.StagePlanCache,
	telemetry.StagePlanSearch,
	telemetry.StageExec,
	telemetry.StageMerge,
	telemetry.StageAnswer,
	telemetry.StageQuery,
	telemetry.StageBatch,
	telemetry.StageRefresh,
}

func newTelemetry() *telemetrySet {
	reg := telemetry.NewRegistry()
	t := &telemetrySet{registry: reg}
	t.state.Store(stateStarting)

	// The tracer's stage histograms live in the registry, so each stage
	// surfaces as one labeled series of a single family.
	t.tracer = telemetry.NewTracer(func(stage string) *telemetry.Histogram {
		return reg.Histogram("durserve_stage_duration_seconds",
			"Wall time per query-lifecycle stage span.",
			telemetry.DurationBuckets, telemetry.Label{Name: "stage", Value: stage})
	})
	for _, stage := range lifecycleStages {
		agg := t.tracer.Stage(stage)
		l := telemetry.Label{Name: "stage", Value: stage}
		reg.CounterFunc("durserve_stage_spans_total",
			"Spans ended per query-lifecycle stage.", agg.Spans, l)
		reg.CounterFunc("durserve_stage_steps_total",
			"Simulator invocations attributed per query-lifecycle stage; plan-search sums to the server's searchSteps, exec to its sampleSteps.",
			agg.Steps, l)
	}

	t.engine = telemetry.NewEngineMetrics()
	// Refreshes book StageRefresh spans on the same tracer, so the stage
	// family covers standing-query maintenance, not just one-shot serving.
	t.engine.Trace = t.tracer
	reg.RegisterHistogram("durserve_tick_duration_seconds",
		"Wall time per standing-query engine update.", t.engine.TickSeconds)
	reg.RegisterHistogram("durserve_refresh_duration_seconds",
		"Wall time per subscription refresh.", t.engine.RefreshSeconds)
	reg.RegisterHistogram("durserve_tick_refreshed_subscriptions",
		"Subscriptions refreshed per engine update.", t.engine.RefreshedPerTick)
	reg.RegisterHistogram("durserve_tick_topup_roots",
		"Fresh root paths simulated per engine update.", t.engine.TopUpRootsPerTick)
	reg.CounterFunc("durserve_stream_revivals_total",
		"Dormant root batches revived by the live state drifting back within tolerance.",
		t.engine.Revivals)

	// Per-worker series appear lazily as the cluster backend first calls
	// each address; a local (or in-memory) daemon exposes none.
	t.workers = telemetry.NewWorkerMetrics(func(addr string, ws *telemetry.WorkerStats) {
		l := telemetry.Label{Name: "worker", Value: addr}
		reg.CounterFunc("durserve_worker_calls_total",
			"Shard chunk calls dispatched per worker.", ws.Calls, l)
		reg.CounterFunc("durserve_worker_errors_total",
			"Shard chunk calls that failed per worker.", ws.Errors, l)
		reg.CounterFunc("durserve_worker_steps_total",
			"Simulator invocations performed per worker.", ws.Steps, l)
		reg.CounterFunc("durserve_worker_roots_total",
			"Root paths simulated per worker.", ws.Roots, l)
		reg.CounterFunc("durserve_worker_busy_nanoseconds_total",
			"Worker-reported cumulative simulation time per worker.", ws.WorkerNanos, l)
		reg.RegisterHistogram("durserve_worker_chunk_seconds",
			"Coordinator-observed chunk round-trip time per worker.", ws.Chunk, l)
		reg.RegisterHistogram("durserve_worker_sim_seconds",
			"Worker-reported per-chunk simulation time.", ws.Remote, l)
	})

	t.replica = &telemetry.ReplicaMetrics{}
	reg.CounterFunc("durserve_promotions_total",
		"Follower promotions performed (lease expiry or POST /promote).", t.replica.Promotions)
	reg.CounterFunc("durserve_lease_expiries_total",
		"Primary-lease expiries observed while following.", t.replica.LeaseExpiries)
	reg.CounterFunc("durserve_follower_ack_rounds_total",
		"Replication acknowledgement rounds received from a follower.", t.replica.AckRounds)

	t.recoveries = reg.Counter("durserve_recoveries_total",
		"Recoveries performed from the checkpoint + write-ahead log store.")
	t.walReplayed = reg.Counter("durserve_wal_records_replayed_total",
		"Write-ahead log records replayed during recovery.")
	t.recoverySeconds = reg.Histogram("durserve_recovery_duration_seconds",
		"Wall time per recovery (checkpoint restore + WAL replay).",
		telemetry.DurationBuckets)
	t.followerApply = reg.Histogram("durserve_follower_apply_seconds",
		"Wall time per replicated WAL record a follower applied into its warm engines.",
		telemetry.DurationBuckets)
	reg.GaugeFunc("durserve_ready",
		"1 once recovery has finished and the serving endpoints accept requests.",
		func() float64 {
			if t.readyState() == stateReady {
				return 1
			}
			return 0
		})
	return t
}

// bind exposes the server's and hub's own counters as metric series.
// These are function-backed reads of the same atomics /stats reports —
// no double bookkeeping, and /metrics can never drift from /stats.
func (t *telemetrySet) bind(srv *serve.Server, hub *streamHub) {
	t.planCache = srv.Runner().Cache
	reg := t.registry
	counter := func(name, help string, fn func(serve.Stats) int64) {
		reg.CounterFunc(name, help, func() int64 { return fn(srv.Stats()) })
	}
	gauge := func(name, help string, fn func(serve.Stats) float64) {
		reg.GaugeFunc(name, help, func() float64 { return fn(srv.Stats()) })
	}
	counter("durserve_queries_served_total", "Queries answered successfully.",
		func(s serve.Stats) int64 { return s.QueriesServed })
	counter("durserve_query_errors_total", "Queries that failed.",
		func(s serve.Stats) int64 { return s.Errors })
	counter("durserve_queries_rejected_total", "Queries shed by admission control or expired in queue.",
		func(s serve.Stats) int64 { return s.Rejected })
	gauge("durserve_inflight_queries", "Queries currently executing.",
		func(s serve.Stats) float64 { return float64(s.InFlight) })
	gauge("durserve_queue_depth", "Queries waiting in the admission queue.",
		func(s serve.Stats) float64 { return float64(s.QueueDepth) })
	counter("durserve_batch_runs_total", "Shared splitting runs answering batches.",
		func(s serve.Stats) int64 { return s.BatchRuns })
	counter("durserve_batch_callers_total", "Batch requests answered.",
		func(s serve.Stats) int64 { return s.BatchCallers })
	counter("durserve_batch_coalesced_total", "Batch requests that shared another request's run.",
		func(s serve.Stats) int64 { return s.BatchCoalesced })
	counter("durserve_batch_thresholds_total", "Thresholds answered across all batch runs.",
		func(s serve.Stats) int64 { return s.BatchThresholds })
	counter("durserve_sample_steps_total", "Simulator invocations spent sampling.",
		func(s serve.Stats) int64 { return s.SampleSteps })
	counter("durserve_search_steps_total", "Simulator invocations spent on level-plan searches.",
		func(s serve.Stats) int64 { return s.SearchSteps })
	gauge("durserve_plan_cache_entries", "Completed plans resident in the cache.",
		func(s serve.Stats) float64 { return float64(s.PlanEntries) })
	counter("durserve_plan_cache_hits_total", "Plan resolutions served from the cache.",
		func(s serve.Stats) int64 { return s.PlanHits })
	counter("durserve_plan_cache_misses_total", "Plan resolutions that paid a level search.",
		func(s serve.Stats) int64 { return s.PlanMisses })
	counter("durserve_plan_cache_evictions_total", "Plans evicted by capacity.",
		func(s serve.Stats) int64 { return s.PlanEvictions })
	counter("durserve_plan_cache_invalidated_total", "Plans dropped by invalidation.",
		func(s serve.Stats) int64 { return s.PlanInvalidated })

	engineStats := func(fn func(streamStats) int64) func() int64 {
		return func() int64 { return fn(hub.stats()) }
	}
	reg.GaugeFunc("durserve_streams", "Live states the standing-query engine maintains.",
		func() float64 { return float64(hub.stats().Engine.Streams) })
	reg.GaugeFunc("durserve_subscriptions", "Standing queries currently registered.",
		func() float64 { return float64(hub.stats().Subscriptions) })
	reg.CounterFunc("durserve_stream_ticks_total", "State updates the engine processed.",
		engineStats(func(s streamStats) int64 { return s.Engine.Ticks }))
	reg.CounterFunc("durserve_stream_refreshes_total", "Subscription refreshes performed.",
		engineStats(func(s streamStats) int64 { return s.Engine.Refreshes }))
	reg.CounterFunc("durserve_stream_fresh_roots_total", "Root trees simulated by refresh top-ups.",
		engineStats(func(s streamStats) int64 { return s.Engine.FreshRoots }))
	reg.CounterFunc("durserve_stream_fresh_steps_total", "Simulator invocations spent on fresh roots.",
		engineStats(func(s streamStats) int64 { return s.Engine.FreshSteps }))
	reg.CounterFunc("durserve_stream_search_steps_total", "Simulator invocations refreshes spent on plan searches.",
		engineStats(func(s streamStats) int64 { return s.Engine.SearchSteps }))
	reg.CounterFunc("durserve_stream_replans_total", "Refreshes that crossed a drift bucket and re-resolved their plan.",
		engineStats(func(s streamStats) int64 { return s.Engine.Replans }))
	reg.CounterFunc("durserve_stream_dropped_roots_total", "Root trees discarded by drift, age or replanning.",
		engineStats(func(s streamStats) int64 { return s.Engine.DroppedRoots }))
	for _, name := range storeNames(hub.engine.Shards()) {
		name := name
		reg.CounterFunc("durserve_wal_bytes_total",
			"Write-ahead log record bytes appended, per store (0 without -data-dir, and on a follower until promotion).",
			func() int64 { return hub.walBytes(name) }, telemetry.Label{Name: "store", Value: name})
	}
}

func (t *telemetrySet) readyState() string {
	return t.state.Load().(string)
}

func (t *telemetrySet) setState(s string) {
	t.state.Store(s)
}

// observeRecovery books one completed recovery.
func (t *telemetrySet) observeRecovery(replayed int64, d time.Duration) {
	t.recoveries.Inc()
	t.walReplayed.Add(replayed)
	t.recoverySeconds.ObserveDuration(d)
}

// readyzLag is one store's replication position in the follower's
// structured /readyz body.
type readyzLag struct {
	Bytes      int64 `json:"bytes"`      // manifest WAL bytes not yet applied
	Records    int64 `json:"records"`    // records behind the primary's LSN (0 = unknown)
	AppliedLSN int64 `json:"appliedLSN"` // last LSN applied locally
	SourceLSN  int64 `json:"sourceLSN"`  // primary's last LSN (0 = unknown)
	Restored   bool  `json:"restored"`   // lineage restored into the warm engine
}

// readyzFollower is the follower-state /readyz body: the state plus the
// per-store replication lag, so orchestration can judge how warm a
// standby is from the same probe it already polls. Stores is a map, and
// encoding/json sorts map keys, so the body is deterministic.
type readyzFollower struct {
	State  string               `json:"state"`
	Stores map[string]readyzLag `json:"stores"`
}

// handleReadyz reports the readiness state: 200 once recovery finished,
// 503 with the current state while starting or replaying the WAL — the
// split from /healthz lets orchestrators keep a recovering instance
// alive (live) without routing traffic to it (not ready). A follower
// answers structured JSON carrying its per-store replication lag; every
// other state keeps the bare-text body.
func (t *telemetrySet) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state := t.readyState()
	status := http.StatusServiceUnavailable
	if state == stateReady {
		status = http.StatusOK
	}
	if state == stateFollowing && t.lagsFn != nil {
		lags := t.lagsFn()
		body := readyzFollower{State: state, Stores: make(map[string]readyzLag, len(lags))}
		//durlint:ignore maporder keyed map copy; JSON encoding sorts the keys
		for name, l := range lags {
			body.Stores[name] = readyzLag{
				Bytes:      l.Bytes,
				Records:    l.Records,
				AppliedLSN: l.AppliedLSN,
				SourceLSN:  l.SourceLSN,
				Restored:   l.Restored,
			}
		}
		writeJSON(w, status, body)
		return
	}
	w.WriteHeader(status)
	fmt.Fprintln(w, state)
}

// gate 503s the serving endpoints until the daemon is ready; the health
// and observability endpoints always pass, so probes and scrapers can
// watch recovery progress instead of being locked out by it.
func (t *telemetrySet) gate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz", "/metrics", "/promote", "/plans":
			next.ServeHTTP(w, r)
			return
		}
		// A follower serves the replication feed of its own mirror (for
		// chained followers) and must accept /promote before it is ready.
		if strings.HasPrefix(r.URL.Path, "/replicate/") {
			next.ServeHTTP(w, r)
			return
		}
		if state := t.readyState(); state != stateReady {
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("not ready: %s", state))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// opsMux is the operations listener (-ops-addr): metrics, health,
// readiness and the pprof profiling surface, kept off the serving
// address so profiling endpoints are never exposed where queries are.
func (t *telemetrySet) opsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", t.registry.Handler())
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", t.handleReadyz)
	mux.HandleFunc("GET /plans", t.handlePlans)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
