package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"durability/internal/experiments"
	"durability/internal/serve"
)

// fuzzTS lazily builds one server shared by every fuzz iteration: the
// targets only decode and validate bodies (plus small bounded runs for
// the rare valid input), so per-iteration servers would be pure overhead.
// Budgets and the horizon cap keep a fuzz-crafted "valid" body from
// turning into an expensive simulation.
var fuzzTS = sync.OnceValue(func() *httptest.Server {
	registry := experiments.Models(experiments.DefaultModelParams())
	srv := serve.NewServer(registry, serve.Config{
		PoolWorkers:   2,
		QueueDepth:    64,
		Seed:          1,
		MaxBudget:     50_000,
		DefaultRelErr: 0.5,
		MaxHorizon:    2_000,
	})
	hub := newStreamHub(srv, registry, nil, nil, 1)
	return httptest.NewServer(newMux(srv, hub, newTelemetry(), &replicaSet{}))
})

// fuzzEndpoint drives one decode surface: whatever the body, the endpoint
// must answer — never panic, never 5xx — and a body that is not valid
// JSON must always be a 400. The seeded corpus (valid requests, typos,
// truncations, type confusion, trailing garbage) runs as part of the
// normal `go test ./...`; `go test -fuzz` explores from there.
func fuzzEndpoint(f *testing.F, path string, seeds []string) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		ts := fuzzTS()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatalf("transport error (handler crashed?): %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("body %q: status %d — malformed or unlucky bodies must never 5xx", body, resp.StatusCode)
		}
		if !json.Valid([]byte(body)) && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q is not JSON yet got status %d, want 400", body, resp.StatusCode)
		}
	})
}

func FuzzBatchEndpoint(f *testing.F) {
	fuzzEndpoint(f, "/batch", []string{
		`{"model":"walk","betas":[6,8],"horizon":50,"re":0.5}`,
		`{"model":"walk","betas":[],"horizon":50}`,
		`{"model":"walk","betas":[-1e308],"horizon":50}`,
		`{"model":"walk","betas":[1e308,1e-308],"horizon":50}`,
		`{"model":"walk","betas":[6],"horizon":99999999}`,
		`{"model":"walk","betas":"6","horizon":50}`,
		`{"model":"nope","betas":[6],"horizon":50}`,
		`{"model":"walk","betas":[6],"horizon":50}{"again":true}`,
		`{"model":"walk","betas":[6],"horizon":50,"unknown":1}`,
		`{not json`,
		``,
		`null`,
		`[]`,
		`"string"`,
	})
}

func FuzzQueryEndpoint(f *testing.F) {
	fuzzEndpoint(f, "/query", []string{
		`{"model":"walk","beta":6,"horizon":50,"re":0.5}`,
		`{"model":"walk","beta":-6,"horizon":50}`,
		`{"model":"walk","beta":6,"horizon":-50}`,
		`{"model":"walk","beta":6,"horizon":50,"method":"bogus"}`,
		`{"model":"walk","beta":1e308,"horizon":50,"budget":100}`,
		`{"model":"queue","observer":"nope","beta":26,"horizon":50}`,
		`{"model":"walk","beta":6,"horizon":50}trailing`,
		`{"beta":{},"horizon":[]}`,
		`{not json`,
		``,
		`null`,
	})
}

func FuzzSubscribeEndpoint(f *testing.F) {
	fuzzEndpoint(f, "/subscribe", []string{
		`{"model":"walk","beta":15,"horizon":50,"re":0.5}`,
		`{"model":"walk","beta":0,"horizon":50}`,
		`{"model":"walk","beta":15,"horizon":50,"drift":-2}`,
		`{"model":"walk","beta":15,"horizon":50,"maxAge":-1}`,
		`{"stream":123}`,
		`{"model":"nope","beta":15,"horizon":50}`,
		`{"model":"walk","beta":15}`,
		`{not json`,
		``,
		`true`,
	})
}
