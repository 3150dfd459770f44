// Command durserve serves durability prediction queries over HTTP.
//
// It fronts the concurrent serving layer of internal/serve: a worker pool
// executes queries, a bounded admission queue sheds load once the pool is
// saturated, and a shared plan cache amortizes the paper's §5.2 level
// search across queries of the same shape — the first query of a shape
// pays the search, every later one samples immediately.
//
//	durserve -addr :8077 &
//
//	# One durability query (tandem queue backing up past 26 customers):
//	curl -s localhost:8077/query -d '{"model":"queue","beta":26,"horizon":500,"re":0.1}'
//
//	# Serving statistics, including the plan-cache hit rate:
//	curl -s localhost:8077/stats
//
// POST /query accepts a JSON serve.Request; the response carries the
// estimate, its 95% confidence interval, cost accounting and whether the
// level plan came from the cache. GET /stats reports a serve.Stats
// snapshot. Model parameters are fixed at startup by flags (the same
// defaults as cmd/durquery); queries select a model and observer by name.
//
// A whole threshold ladder goes through POST /batch as one shared
// splitting run — every threshold is a boundary of one covering level
// plan, and each answer is read off the shared counters:
//
//	curl -s localhost:8077/batch -d '{"model":"gbm","betas":[1100,1150,1200,1250],"horizon":250,"re":0.1}'
//
// Concurrent /batch requests of the same shape (model, observer, horizon,
// ratio, seed, quality target) coalesce into a single run over the union
// of their thresholds when -coalesce is set; each caller receives exactly
// its own thresholds' answers.
//
// Standing queries ride the incremental maintenance engine of
// internal/stream:
//
//	# Register a standing query against the gbm live state:
//	curl -s localhost:8077/subscribe -d '{"model":"gbm","beta":1200,"horizon":250,"re":0.1}'
//
//	# Advance the live state three ticks (answers refresh incrementally):
//	curl -s localhost:8077/tick -d '{"stream":"gbm","steps":3}'
//
//	# Long-poll the maintained answer past tick 3:
//	curl -s 'localhost:8077/updates?id=sub-1&since=3&timeoutSec=30'
//
// DELETE /subscribe?id=sub-1 deregisters; GET /streams reports the
// maintenance engine's cost accounting. The -tick flag auto-advances
// every live stream on an interval, turning the daemon into a
// self-contained live demo.
//
// Both query paths can shard their simulation across a worker fleet —
// the §3.1 parallelization, behind the pluggable execution seam of
// internal/exec. Start shard workers (same binary, same model flags, one
// per machine), then point the serving daemon at them:
//
//	durserve -worker 127.0.0.1:7070 &
//	durserve -worker 127.0.0.1:7071 &
//	durserve -addr :8077 -workers 127.0.0.1:7070,127.0.0.1:7071
//
// Root path i draws from PRNG substream i regardless of which worker
// simulates it, so a sharded daemon returns bit-for-bit the answers a
// single-machine daemon would; a worker dying mid-query costs a retry,
// not the answer.
//
// With -data-dir the serving state is durable: every mutation is written
// ahead to a log, checkpoints capture the standing-query engine, the
// warm plan cache, the live feeds and the subscription handle table, and
// a restarted daemon recovers all of it — answering every subsequent
// tick bit-for-bit as the uninterrupted daemon would:
//
//	durserve -addr :8077 -data-dir /var/lib/durserve
//
// Checkpoints are written at boot, when the log outgrows
// -checkpoint-bytes or -checkpoint-age, and on SIGTERM — after which
// in-flight GET /updates long-polls resolve with 204 (shutting down)
// instead of being dropped mid-wait.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"durability/internal/cluster"
	"durability/internal/exec"
	"durability/internal/experiments"
	"durability/internal/persist"
	"durability/internal/planstats"
	"durability/internal/replicate"
	"durability/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "HTTP listen address")
		opsAddr    = flag.String("ops-addr", "", "separate operations listener for /metrics, /healthz, /readyz and /debug/pprof (empty = no ops listener; /metrics and /readyz still serve on -addr, pprof does not)")
		pool       = flag.Int("pool", 0, "concurrent queries (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 64, "admission queue depth")
		timeout    = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		maxBudget  = flag.Int64("max-budget", 0, "per-query simulator-invocation cap (0 = default)")
		maxHorizon = flag.Int("max-horizon", 1_000_000, "reject queries with a longer horizon — budgets only bind between sampling rounds, so an absurd horizon could overshoot the budget by a whole round (0 = unlimited)")
		defaultRE  = flag.Float64("re", 0.10, "default relative-error target")
		seed       = flag.Uint64("seed", 1, "base random seed")
		bucket     = flag.Float64("bucket", serve.DefaultBetaBucketWidth, "plan-cache threshold bucket width (relative)")
		planCache  = flag.Int("plan-cache", serve.DefaultPlanCacheCap, "plan-cache capacity (completed plans; < 0 = unlimited)")
		planDrift  = flag.Float64("plan-drift-threshold", 0.05, "flag a plan on GET /plans and durserve_plan_drift_exceeded_total when its max per-level |observed - assumed| crossing probability exceeds this (report-only; <= 0 disables the verdict)")
		tick       = flag.Duration("tick", 0, "auto-advance every live stream on this interval (0 = ticks only via POST /tick)")
		dataDir    = flag.String("data-dir", "", "durable serving state: checkpoint + write-ahead log directory (empty = in-memory only; a restart forgets every subscription)")
		ckptBytes  = flag.Int64("checkpoint-bytes", 0, "checkpoint when a write-ahead log outgrows this many bytes (0 = 4 MiB default)")
		ckptAge    = flag.Duration("checkpoint-age", 0, "checkpoint when a write-ahead log has been collecting this long (0 = 5m default)")
		shards     = flag.Int("shards", 1, "standing-query engine shards; subscriptions partition across them by consistent hash and each shard keeps its own checkpoint+WAL lineage under -data-dir")
		follow     = flag.String("follow", "", "run as a warm follower of the primary durserve at this base URL (e.g. http://primary:8077); requires -data-dir for the mirror, serves once promoted")
		followPoll = flag.Duration("follow-poll", 200*time.Millisecond, "follower: replication poll interval")
		leaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "follower: promote automatically when no manifest fetch succeeds for this long (0 = promote only via POST /promote)")
		ackWait    = flag.Duration("ack-wait", 5*time.Second, "primary: on SIGTERM, how long to wait for a follower to acknowledge the final checkpoint's LSNs")
		coalesce   = flag.Duration("coalesce", 2*time.Millisecond, "how long a /batch request waits for compatible batches to share its run (0 = never coalesce)")
		workers    = flag.String("workers", "", "comma-separated shard-worker addresses; g-MLSS simulation is distributed across them")
		worker     = flag.String("worker", "", "run as a shard worker on this address instead of serving HTTP")
		localSim   = flag.Int("worker-sim", 0, "worker mode: ceiling on the kernels one shard steps at once; a shard borrows only idle CPUs, up to it (0 = GOMAXPROCS)")
		params     = experiments.ModelFlags(flag.CommandLine)
	)
	flag.Parse()

	registry := experiments.Models(*params)

	if *worker != "" {
		// Shard-worker mode: serve root-path ranges over rpc for a
		// durserve -workers or durquery -peers coordinator. Both build
		// from the same model table and flags, so a fleet started with
		// identical model flags simulates identical dynamics.
		ln, err := net.Listen("tcp", *worker)
		if err != nil {
			log.Fatalf("durserve: %v", err)
		}
		addr := cluster.Serve(cluster.NewWorker(registry, *localSim), ln)
		log.Printf("durserve: shard worker serving on %s (at most %d kernels per shard; 0 = GOMAXPROCS)", addr, *localSim)
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
		return
	}

	tel := newTelemetry()
	var backend exec.Executor
	if *workers != "" {
		addrs, err := exec.ParseAddrs("workers", *workers)
		if err != nil {
			log.Fatalf("durserve: %v", err)
		}
		cl := exec.NewCluster(addrs...)
		cl.Metrics = tel.workers
		defer cl.Close()
		backend = cl
		log.Printf("durserve: distributing g-MLSS simulation across %s", *workers)
	}

	// The crossing-statistics ledger must exist before the server so every
	// booked run lands in it; bindPlanLedger also hangs the drift gauges
	// off the registry before the listener first scrapes.
	ledger := planstats.NewLedger()
	tel.bindPlanLedger(ledger, *planDrift)

	srv := serve.NewServer(registry, serve.Config{
		PoolWorkers:     *pool,
		QueueDepth:      *queueDepth,
		QueryTimeout:    *timeout,
		MaxBudget:       *maxBudget,
		MaxHorizon:      *maxHorizon,
		DefaultRelErr:   *defaultRE,
		Seed:            *seed,
		BetaBucketWidth: *bucket,
		PlanCacheCap:    *planCache,
		Executor:        backend,
		CoalesceWindow:  *coalesce,
		Tracer:          tel.tracer,
		Ledger:          ledger,
	})
	defer srv.Close()
	// A follower adopts the primary's shard layout instead of trusting
	// -shards: the engines must partition exactly as the replicated hub
	// snapshot records, or restore refuses. Discovery happens before the
	// hub is built because the shard count is baked into its engines.
	shardCount := *shards
	var followSource replicate.HTTPSource
	if *follow != "" {
		if *dataDir == "" {
			log.Fatal("durserve: -follow requires -data-dir (the mirror directory)")
		}
		followSource = replicate.HTTPSource{Base: strings.TrimRight(*follow, "/")}
		n, err := discoverShardCount(followSource, 2*time.Minute)
		if err != nil {
			log.Fatalf("durserve: discovering primary layout: %v", err)
		}
		if n != shardCount {
			log.Printf("durserve: adopting the primary's %d-shard layout (local -shards %d ignored)", n, shardCount)
		}
		shardCount = n
	}
	hub := newStreamHub(srv, registry, *defaultRE, *maxBudget, *seed, backend, tel.engine, shardCount)
	tel.bind(srv, hub)

	opts := persist.Options{MaxWALBytes: *ckptBytes, MaxWALAge: *ckptAge}
	rep := &replicaSet{}
	var acks *ackTable
	var hs *hubStores
	var fr *followerRun
	// promoteReq carries at most one promotion trigger (lease expiry or
	// POST /promote) to the main loop, which owns the takeover.
	promoteReq := make(chan string, 1)
	requestPromotion := func(reason string) error {
		select {
		case promoteReq <- reason:
		default: // one is already queued; the takeover is single-shot anyway
		}
		return nil
	}
	if *follow != "" {
		tel.setState(stateFollowing)
		fr = startFollower(hub, followSource, *dataDir, opts, *followPoll, *leaseTTL, tel.followerApply, func() {
			tel.replica.IncLeaseExpiry()
			requestPromotion("primary lease expired")
		})
		tel.bindFollowerMetrics(fr.follower, storeNames(shardCount))
		rep.setPromote(requestPromotion)
		log.Printf("durserve: following %s (%d shards, poll %s, lease %s)", *follow, shardCount, *followPoll, *leaseTTL)
	} else if *dataDir != "" {
		// Opening the store set is cheap; the slow part (replay) happens
		// below, after the listener is up.
		var err error
		hs, err = openHubStores(*dataDir, opts, shardCount)
		if err != nil {
			log.Fatalf("durserve: %v", err)
		}
		acks = newAckTable(tel.replica)
		rep.enablePrimary(hs, acks)
		tel.bindAckMetrics(acks, storeNames(shardCount))
	}

	// The listener comes up before recovery: a restarting daemon is
	// immediately live (healthz, readyz, metrics) while the serving
	// endpoints stay gated 503 until the WAL is replayed (or, on a
	// follower, until promotion).
	httpSrv := &http.Server{Addr: *addr, Handler: tel.gate(newMux(srv, hub, tel, rep))}
	go func() {
		log.Printf("durserve: listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("durserve: %v", err)
		}
	}()
	var opsSrv *http.Server
	if *opsAddr != "" {
		opsSrv = &http.Server{Addr: *opsAddr, Handler: tel.opsMux()}
		go func() {
			log.Printf("durserve: ops endpoints (metrics, pprof) on %s", *opsAddr)
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("durserve: ops listener: %v", err)
			}
		}()
	}

	if hs != nil {
		tel.setState(stateReplaying)
		began := time.Now()
		replayed, err := hub.attachStores(hs)
		if err != nil {
			log.Fatalf("durserve: recovering %s: %v", *dataDir, err)
		}
		tel.observeRecovery(int64(replayed), time.Since(began))
		st := hub.stats()
		log.Printf("durserve: recovered %d subscriptions across %d streams and %d shard lineages from %s (%d WAL events replayed)",
			st.Subscriptions, st.Engine.Streams, shardCount, *dataDir, replayed)
	}
	if *dataDir != "" {
		// The trigger poller turns each store's size/age thresholds into
		// actual checkpoints; SIGTERM below writes the final one. On a
		// follower it idles (no stores attached) until promotion.
		pollDone := make(chan struct{})
		defer close(pollDone)
		go func() {
			ticker := time.NewTicker(time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := hub.maybeCheckpoint(); err != nil {
						log.Printf("durserve: checkpoint: %v", err)
					}
				case <-pollDone:
					return
				}
			}
		}()
	}
	if fr == nil {
		tel.setState(stateReady)
	}
	if *tick > 0 {
		ticker := time.NewTicker(*tick)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				// A follower never ticks its own feeds — ticks arrive
				// through replication until promotion flips the state.
				if tel.readyState() == stateReady {
					hub.autoTick(context.Background())
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
loop:
	for {
		select {
		case <-stop:
			break loop
		case reason := <-promoteReq:
			if fr == nil {
				continue
			}
			log.Printf("durserve: promoting: %s", reason)
			phs, err := fr.promote()
			if err != nil {
				log.Fatalf("durserve: promotion failed: %v", err)
			}
			hs = phs
			acks = newAckTable(tel.replica)
			rep.enablePrimary(hs, acks)
			tel.bindAckMetrics(acks, storeNames(shardCount))
			tel.replica.IncPromotion()
			tel.setState(stateReady)
			st := hub.stats()
			log.Printf("durserve: promoted; serving %d subscriptions across %d streams from %s",
				st.Subscriptions, st.Engine.Streams, *dataDir)
		}
	}
	log.Print("durserve: shutting down")
	// Order matters: the final checkpoint captures every lineage and (if
	// a follower has been acking) waits for it to confirm the final
	// LSNs, then in-flight long polls resolve with 204 (shutting down)
	// instead of being dropped mid-wait, then the listener drains.
	if fr != nil && tel.readyState() == stateFollowing {
		fr.stop() // never promoted: the mirror on disk is already consistent
	} else if *dataDir != "" {
		if err := finalShutdown(hub, acks, *ackWait); err != nil {
			log.Printf("durserve: final checkpoint: %v", err)
		} else {
			log.Printf("durserve: final checkpoint written to %s", *dataDir)
		}
	}
	hub.beginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("durserve: shutdown: %v", err)
	}
	if opsSrv != nil {
		if err := opsSrv.Shutdown(ctx); err != nil {
			log.Printf("durserve: ops shutdown: %v", err)
		}
	}
}

// decodeJSON strictly decodes a request body: unknown fields (usually
// typos of real ones) and trailing data are rejected, so malformed
// bodies surface as 400s instead of silently defaulted queries.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: trailing data after JSON value")
	}
	return nil
}

// queryStatus maps a serving error onto its HTTP status.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// newMux wires the serving endpoints; it is separated from main so tests
// can drive the handlers through httptest.
func newMux(srv *serve.Server, hub *streamHub, tel *telemetrySet, rep *replicaSet) *http.ServeMux {
	mux := http.NewServeMux()
	// Replication feed (primary) and promotion trigger (follower). Both
	// are allowlisted through the readiness gate: a follower accepts
	// /promote before it is ready, and a primary ships WAL segments even
	// while a checkpoint poller is mid-replay.
	mux.Handle("/replicate/", http.HandlerFunc(rep.serveReplicate))
	mux.HandleFunc("POST /promote", rep.handlePromote)
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := srv.Do(r.Context(), req)
		if err != nil {
			httpError(w, queryStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := srv.DoBatch(r.Context(), req)
		if err != nil {
			httpError(w, queryStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, srv.Stats())
	})
	mux.Handle("GET /metrics", tel.registry.Handler())
	// Liveness vs readiness: /healthz answers 200 whenever the process
	// serves HTTP at all; /readyz answers 200 only once recovery has
	// finished and the serving endpoints accept requests.
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", tel.handleReadyz)
	// Plan-quality introspection: every cached plan with its assumed vs
	// observed per-level crossing statistics and drift verdict.
	mux.HandleFunc("GET /plans", tel.handlePlans)

	// Standing queries: register, long-poll, advance, deregister.
	mux.HandleFunc("POST /subscribe", func(w http.ResponseWriter, r *http.Request) {
		var req subscribeRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := hub.subscribe(r.Context(), req)
		if err != nil {
			httpError(w, queryStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("DELETE /subscribe", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if !hub.unsubscribe(id) {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown subscription %q", id))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /updates", hub.handleUpdates)
	mux.HandleFunc("POST /tick", func(w http.ResponseWriter, r *http.Request) {
		var req tickRequest
		if err := decodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := hub.tick(r.Context(), req)
		if err != nil {
			httpError(w, queryStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /streams", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, hub.statsDetailed())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("durserve: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
