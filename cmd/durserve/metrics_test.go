package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"durability/internal/experiments"
	"durability/internal/serve"
)

// splitExposition classifies one /metrics body for the golden test.
// identities is every line with sample values stripped — the exposed
// metric set. exact is the subset of lines whose values are pure
// functions of the request history: everything except families whose
// name carries "_seconds" (wall-time: stage/tick/refresh/recovery
// histograms, worker nanoseconds), which may legitimately differ
// between two identically driven servers.
func splitExposition(body string) (identities, exact []string) {
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			identities = append(identities, line)
			exact = append(exact, line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		id := line
		if j := strings.LastIndexByte(line, ' '); j >= 0 {
			id = line[:j]
		}
		identities = append(identities, id)
		if !strings.Contains(name, "seconds") {
			exact = append(exact, line)
		}
	}
	return identities, exact
}

// TestMetricsGoldenAcrossServers is the observability half of the
// byte-identity contract: two servers driven through the same request
// sequence must expose the identical metric set (every family, every
// labeled series), and identical values on every metric that is not
// wall-time. Durations are the one sanctioned nondeterminism — if any
// other family diverges, telemetry has picked up a hidden clock, a map
// order, or a scheduling dependency.
func TestMetricsGoldenAcrossServers(t *testing.T) {
	tsA := testServer(t)
	tsB := testServer(t)
	driveFixedSequence(t, tsA)
	driveFixedSequence(t, tsB)

	bodyA := string(getBytes(t, tsA, "/metrics"))
	bodyB := string(getBytes(t, tsB, "/metrics"))
	idsA, exactA := splitExposition(bodyA)
	idsB, exactB := splitExposition(bodyB)

	if a, b := strings.Join(idsA, "\n"), strings.Join(idsB, "\n"); a != b {
		t.Errorf("metric sets diverged across identically-driven servers:\n%s\n----\n%s", a, b)
	}
	if a, b := strings.Join(exactA, "\n"), strings.Join(exactB, "\n"); a != b {
		t.Errorf("non-duration metric values diverged across identically-driven servers:\n%s\n----\n%s", a, b)
	}

	// The exposition must cover every serving subsystem.
	for _, want := range []string{
		`durserve_stage_duration_seconds_bucket{stage="admission",le="0.0001"}`,
		`durserve_stage_steps_total{stage="exec"}`,
		`durserve_stage_steps_total{stage="plan-search"}`,
		"durserve_queries_served_total 1",
		"durserve_plan_cache_misses_total",
		"durserve_batch_runs_total",
		"durserve_stream_ticks_total 3",
		"durserve_tick_refreshed_subscriptions_count 3",
		`durserve_encode_seconds_count{route="tick"} 3`,
		`durserve_encode_seconds_count{route="subscribe"} 2`,
		`durserve_encode_seconds_count{route="updates"} 0`,
		"durserve_recoveries_total 0",
		"durserve_ready 1",
	} {
		if !strings.Contains(bodyA, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// metricValue extracts the value of one exact (unlabeled) series.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("metric %s has non-integer value %q", name, v)
			}
			return n
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestMetricsStepAttributionMatchesStats asserts the exactness contract
// end to end over HTTP: the steps attributed to the plan-search stage
// spans equal the server's searchSteps counter, and the exec stage's
// equal its sampleSteps — both visible in the same scrape. The traffic
// covers both sampling surfaces, one-shot queries and a /batch ladder,
// and the ladder's exec spans book exactly its shared run's steps.
func TestMetricsStepAttributionMatchesStats(t *testing.T) {
	ts := testServer(t)
	driveFixedSequence(t, ts)
	postQuery(t, ts, `{"model":"queue","beta":26,"horizon":500,"re":0.2}`)

	execBefore := metricValue(t, string(getBytes(t, ts, "/metrics")), `durserve_stage_steps_total{stage="exec"}`)
	resp, batch := postBatch(t, ts, `{"model":"walk","betas":[6,8,10,12],"horizon":100,"re":0.2,"seed":7}`)
	if resp.StatusCode != http.StatusOK || batch.SharedSteps == 0 {
		t.Fatalf("batch ladder: status %d, shared steps %d", resp.StatusCode, batch.SharedSteps)
	}

	body := string(getBytes(t, ts, "/metrics"))
	searchSpanSteps := metricValue(t, body, `durserve_stage_steps_total{stage="plan-search"}`)
	execSpanSteps := metricValue(t, body, `durserve_stage_steps_total{stage="exec"}`)
	searchSteps := metricValue(t, body, "durserve_search_steps_total")
	sampleSteps := metricValue(t, body, "durserve_sample_steps_total")

	// searchSteps is the shared plan cache's total, covering every
	// surface that resolves plans through the runner — one-shot queries
	// and standing-query refreshes alike — which is exactly the set of
	// call sites that book plan-search spans. sampleSteps is the one-shot
	// and batch sampling total, the set that books exec spans (the stream
	// engine's incremental top-ups are accounted separately, in
	// durserve_stream_fresh_steps_total).
	if searchSpanSteps != searchSteps {
		t.Errorf("plan-search span steps %d != searchSteps %d", searchSpanSteps, searchSteps)
	}
	if execSpanSteps != sampleSteps {
		t.Errorf("exec span steps %d != sampleSteps %d", execSpanSteps, sampleSteps)
	}
	if got := execSpanSteps - execBefore; got != batch.SharedSteps {
		t.Errorf("the batch ladder's exec spans booked %d steps, want its shared run's %d", got, batch.SharedSteps)
	}
	if searchSpanSteps == 0 || execSpanSteps == 0 {
		t.Errorf("span steps are zero (search %d, exec %d); attribution is not wired", searchSpanSteps, execSpanSteps)
	}
}

// TestMetricsScrapeConcurrentWithTraffic hammers /metrics while queries,
// batches and ticks are in flight — the lock-free histograms and
// function-backed series must hold up under -race.
func TestMetricsScrapeConcurrentWithTraffic(t *testing.T) {
	ts := testServer(t)
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.25}`)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	var traffic sync.WaitGroup
	for c := 0; c < 3; c++ {
		traffic.Add(1)
		go func(c int) {
			defer traffic.Done()
			for i := 0; i < 4; i++ {
				postQuery(t, ts, fmt.Sprintf(`{"model":"walk","beta":%d,"horizon":100,"re":0.3}`, 6+c))
				postJSON(t, ts, "/batch", fmt.Sprintf(`{"model":"walk","betas":[%d,%d],"horizon":100,"re":0.3}`, 7+c, 10+c))
				postJSON(t, ts, "/tick", `{"stream":"walk","steps":1}`)
			}
		}(c)
	}
	traffic.Wait()
	close(stop)
	wg.Wait()
}

// TestReadinessGate walks the starting → replaying-wal → ready lifecycle
// against a gated mux: serving endpoints 503 until ready while liveness
// and observability stay reachable throughout.
func TestReadinessGate(t *testing.T) {
	registry := experiments.Models(experiments.DefaultModelParams())
	tel := newTelemetry()
	srv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Tracer: tel.tracer})
	t.Cleanup(srv.Close)
	hub := newStreamHub(srv, registry, nil, tel.engine, 1)
	tel.bind(srv, hub)
	ts := httptest.NewServer(tel.gate(newMux(srv, hub, tel, &replicaSet{})))
	t.Cleanup(ts.Close)

	status := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob := make([]byte, 256)
		n, _ := resp.Body.Read(blob)
		return resp.StatusCode, strings.TrimSpace(string(blob[:n]))
	}

	for _, state := range []string{stateStarting, stateReplaying} {
		tel.setState(state)
		if code, body := status("/readyz"); code != http.StatusServiceUnavailable || body != state {
			t.Errorf("state %s: /readyz returned %d %q", state, code, body)
		}
		if code, _ := status("/healthz"); code != http.StatusOK {
			t.Errorf("state %s: /healthz returned %d, want 200 (liveness is not readiness)", state, code)
		}
		if code, _ := status("/metrics"); code != http.StatusOK {
			t.Errorf("state %s: /metrics returned %d, want 200", state, code)
		}
		if code, _ := status("/stats"); code != http.StatusServiceUnavailable {
			t.Errorf("state %s: /stats returned %d, want 503 while not ready", state, code)
		}
		if resp, _ := postQuery(t, ts, `{"model":"walk","beta":8,"horizon":100,"re":0.3}`); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("state %s: /query returned %d, want 503 while not ready", state, resp.StatusCode)
		}
	}

	tel.setState(stateReady)
	if code, body := status("/readyz"); code != http.StatusOK || body != stateReady {
		t.Errorf("ready: /readyz returned %d %q", code, body)
	}
	if resp, _ := postQuery(t, ts, `{"model":"walk","beta":8,"horizon":100,"re":0.3}`); resp.StatusCode != http.StatusOK {
		t.Errorf("ready: /query returned %d, want 200", resp.StatusCode)
	}
}

// TestRecoveryMetricsExposed is the in-process twin of the crash drill's
// metrics assertion: a recovered durable server reports its recovery on
// /metrics.
func TestRecoveryMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	ts, hub := durableServer(t, dir)
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	tickOnce(t, ts, "walk")
	ts.Close()
	hub.closeStores()

	ts2, _ := durableServer(t, dir)
	body := string(getBytes(t, ts2, "/metrics"))
	if got := metricValue(t, body, "durserve_recoveries_total"); got != 1 {
		t.Errorf("durserve_recoveries_total %d, want 1", got)
	}
	if got := metricValue(t, body, "durserve_wal_records_replayed_total"); got <= 0 {
		t.Errorf("durserve_wal_records_replayed_total %d, want > 0", got)
	}
}

// TestJournalMetrics covers the series that price journaling refresh
// outcomes. durserve_wal_bytes_total counts record frame bytes, which are
// deterministic for one sequence of requests and checkpoints (a
// segment's first record of each type carries its gob descriptors): two
// identically driven durable servers still expose
// identical values on every series but the durations, among them the
// per-store durserve_wal_append_seconds and
// durserve_checkpoint_duration_seconds. And a follower times every
// record it applies into durserve_follower_apply_seconds.
func TestJournalMetrics(t *testing.T) {
	const shards = 2
	a := durableSharded(t, t.TempDir(), shards)
	b := durableSharded(t, t.TempDir(), shards)
	for _, ts := range []*httptest.Server{a.ts, b.ts} {
		driveFixedSequence(t, ts)
	}
	bodyA := string(getBytes(t, a.ts, "/metrics"))
	bodyB := string(getBytes(t, b.ts, "/metrics"))
	_, exactA := splitExposition(bodyA)
	_, exactB := splitExposition(bodyB)
	if x, y := strings.Join(exactA, "\n"), strings.Join(exactB, "\n"); x != y {
		t.Errorf("non-duration metric values diverged across identically-driven durable servers:\n%s\n----\n%s", x, y)
	}
	for _, name := range storeNames(shards) {
		for _, series := range []string{
			fmt.Sprintf("durserve_wal_bytes_total{store=%q}", name),
			fmt.Sprintf("durserve_wal_append_seconds_count{store=%q}", name),
			fmt.Sprintf("durserve_checkpoint_duration_seconds_count{store=%q}", name),
		} {
			if got := metricValue(t, bodyA, series); got <= 0 {
				t.Errorf("%s = %d after journaled traffic, want > 0", series, got)
			}
		}
	}
	if got := metricValue(t, bodyA, "durserve_follower_apply_seconds_count"); got != 0 {
		t.Errorf("a primary applied %d replicated records", got)
	}

	f := startTestFollower(t, a.ts.URL, t.TempDir(), shards)
	waitCaughtUp(t, f, a.hub)
	fsrv := httptest.NewServer(f.tel.opsMux())
	defer fsrv.Close()
	body := string(getBytes(t, fsrv, "/metrics"))
	if got := metricValue(t, body, "durserve_follower_apply_seconds_count"); got <= 0 {
		t.Errorf("durserve_follower_apply_seconds_count = %d on a caught-up follower, want > 0", got)
	}
	if got := metricValue(t, body, `durserve_wal_bytes_total{store="shard-0000"}`); got != 0 {
		t.Errorf("a follower appended %d WAL bytes before promotion", got)
	}
}
