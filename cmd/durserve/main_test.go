package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"durability/internal/experiments"
	"durability/internal/serve"
)

func testServer(t *testing.T) *httptest.Server {
	ts, _ := testServerHub(t)
	return ts
}

// testServerHub also hands back the hub, for tests that drive handlers
// directly or inspect hub internals.
func testServerHub(t *testing.T) (*httptest.Server, *streamHub) {
	t.Helper()
	registry := experiments.Models(experiments.DefaultModelParams())
	tel := newTelemetry()
	srv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Tracer: tel.tracer})
	t.Cleanup(srv.Close)
	hub := newStreamHub(srv, registry, nil, tel.engine, 1)
	tel.bind(srv, hub)
	tel.setState(stateReady)
	ts := httptest.NewServer(newMux(srv, hub, tel, &replicaSet{}))
	t.Cleanup(ts.Close)
	return ts, hub
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, serve.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.Response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)

	resp, first := postQuery(t, ts, `{"model":"walk","beta":8,"horizon":100,"re":0.2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if first.P <= 0 || first.P >= 1 {
		t.Fatalf("estimate %v outside (0,1)", first.P)
	}
	if first.Method != "g-mlss" || first.PlanCached || first.SearchSteps == 0 {
		t.Fatalf("first answer should pay a fresh search: %+v", first)
	}

	// The same shape again: served from the plan cache, same estimate.
	_, second := postQuery(t, ts, `{"model":"walk","beta":8,"horizon":100,"re":0.2}`)
	if !second.PlanCached || second.SearchSteps != 0 {
		t.Fatalf("second answer should hit the cache: %+v", second)
	}
	if second.P != first.P {
		t.Fatalf("identical request diverged: %v vs %v", second.P, first.P)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{not json`,
		`{"model":"nope","beta":8,"horizon":100}`,
		`{"model":"walk","beta":-8,"horizon":100}`,
		`{"model":"queue","observer":"nope","beta":26,"horizon":500}`,
	} {
		resp, _ := postQuery(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Wrong HTTP method.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d, want 405", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	postQuery(t, ts, `{"model":"walk","beta":8,"horizon":100,"re":0.2,"method":"srs","budget":50000}`)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.QueriesServed != 1 || st.SampleSteps == 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.PoolWorkers != 2 {
		t.Fatalf("pool workers %d, want 2", st.PoolWorkers)
	}
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
