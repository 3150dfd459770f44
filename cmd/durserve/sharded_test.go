package main

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"durability/internal/cluster"
	"durability/internal/exec"
	"durability/internal/experiments"
	"durability/internal/serve"
)

// shardedServer builds the -workers configuration end to end: shard
// workers serving the same registry as the HTTP daemon, with both the
// query server and the stream hub on the cluster backend.
func shardedServer(t *testing.T, nWorkers int) (*httptest.Server, *httptest.Server) {
	t.Helper()
	registry := experiments.Models(experiments.DefaultModelParams())

	addrs, stop, err := cluster.ServeLocal(registry, nWorkers, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	backend := exec.NewCluster(addrs...)
	t.Cleanup(backend.Close)

	// The sharded stack carries full telemetry, worker attribution
	// included: the equality assertions below then double as proof that
	// instrumentation never touches the numerics.
	shardedTel := newTelemetry()
	backend.Metrics = shardedTel.workers
	shardedSrv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Executor: backend, Tracer: shardedTel.tracer})
	t.Cleanup(shardedSrv.Close)
	shardedHub := newStreamHub(shardedSrv, registry, backend, shardedTel.engine, 1)
	shardedTel.bind(shardedSrv, shardedHub)
	shardedTel.setState(stateReady)
	sharded := httptest.NewServer(newMux(shardedSrv, shardedHub, shardedTel, &replicaSet{}))
	t.Cleanup(sharded.Close)

	localTel := newTelemetry()
	localSrv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Executor: exec.Local{}, Tracer: localTel.tracer})
	t.Cleanup(localSrv.Close)
	localHub := newStreamHub(localSrv, registry, exec.Local{}, localTel.engine, 1)
	localTel.bind(localSrv, localHub)
	localTel.setState(stateReady)
	local := httptest.NewServer(newMux(localSrv, localHub, localTel, &replicaSet{}))
	t.Cleanup(local.Close)
	return sharded, local
}

// A daemon sharding across workers must answer one-shot queries and
// maintain standing queries bit-for-bit as the single-machine daemons
// do — one with an explicit exec.Local backend, and the default one
// started without any — straight through the HTTP surface.
func TestShardedDaemonMatchesLocal(t *testing.T) {
	sharded, local := shardedServer(t, 2)
	def := testServer(t)
	daemons := []struct {
		name string
		ts   *httptest.Server
	}{{"local", local}, {"default", def}}

	const query = `{"model":"walk","beta":12,"horizon":100,"re":0.2,"seed":7}`
	sresp, sout := postQuery(t, sharded, query)
	if sresp.StatusCode != 200 {
		t.Fatalf("sharded query status %d", sresp.StatusCode)
	}
	sout.Elapsed = 0
	for _, d := range daemons {
		resp, out := postQuery(t, d.ts, query)
		if resp.StatusCode != 200 {
			t.Fatalf("%s query status %d", d.name, resp.StatusCode)
		}
		out.Elapsed = 0
		if !reflect.DeepEqual(sout, out) {
			t.Fatalf("sharded query %+v differs from %s %+v", sout, d.name, out)
		}
	}

	const subBody = `{"model":"walk","beta":15,"horizon":100,"re":0.2,"seed":7}`
	ssub := subscribe(t, sharded, subBody)
	for _, d := range daemons {
		sub := subscribe(t, d.ts, subBody)
		if ssub.Answer.P != sub.Answer.P || ssub.Answer.FreshSteps != sub.Answer.FreshSteps {
			t.Fatalf("sharded initial answer (P=%v, freshSteps=%d) differs from %s (P=%v, freshSteps=%d)",
				ssub.Answer.P, ssub.Answer.FreshSteps, d.name, sub.Answer.P, sub.Answer.FreshSteps)
		}
	}

	// Every hub drives the feed with the same seed, so the live states —
	// and therefore the maintained answers — stay in lockstep.
	tick := func(ts *httptest.Server) answerJSON {
		_, raw := postJSON(t, ts, "/tick", `{"stream":"walk"}`)
		var tk tickResponse
		if err := json.Unmarshal(raw, &tk); err != nil {
			t.Fatal(err)
		}
		return tk.Refreshes[0].Answer
	}
	for i := 0; i < 3; i++ {
		sa := tick(sharded)
		for _, d := range daemons {
			la := tick(d.ts)
			if sa.P != la.P || sa.FreshSteps != la.FreshSteps || sa.SurvivedRoots != la.SurvivedRoots {
				t.Fatalf("tick %d: sharded answer (P=%v, fresh=%d, survived=%d) differs from %s (P=%v, fresh=%d, survived=%d)",
					i+1, sa.P, sa.FreshSteps, sa.SurvivedRoots, d.name, la.P, la.FreshSteps, la.SurvivedRoots)
			}
		}
	}

	// The sharded daemon's scrape carries the per-worker attribution
	// series, registered lazily as each worker address took its first
	// call — the local daemon exposes none of them.
	body := string(getBytes(t, sharded, "/metrics"))
	for _, want := range []string{
		"durserve_worker_calls_total{worker=",
		"durserve_worker_roots_total{worker=",
		"durserve_worker_chunk_seconds_bucket{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("sharded /metrics missing %q", want)
		}
	}
	if localBody := string(getBytes(t, local, "/metrics")); strings.Contains(localBody, "durserve_worker_") {
		t.Error("local /metrics exposes per-worker series without a cluster backend")
	}
}
