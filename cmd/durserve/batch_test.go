package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"durability/internal/experiments"
	"durability/internal/serve"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, serve.BatchResponse) {
	t.Helper()
	resp, raw := postJSON(t, ts, "/batch", body)
	var out serve.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestBatchEndpoint(t *testing.T) {
	ts := testServer(t)

	resp, first := postBatch(t, ts, `{"model":"walk","betas":[6,8,10],"horizon":100,"re":0.2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(first.Answers) != 3 || first.Thresholds != 3 {
		t.Fatalf("batch response shape: %+v", first)
	}
	for i, beta := range []float64{6, 8, 10} {
		a := first.Answers[i]
		if a.Beta != beta || a.P <= 0 || a.P >= 1 {
			t.Fatalf("answer %d: %+v", i, a)
		}
		if i > 0 && a.P > first.Answers[i-1].P {
			t.Fatalf("estimates not monotone in beta: %+v", first.Answers)
		}
	}
	if first.PlanCached || first.SearchSteps == 0 {
		t.Fatalf("first batch should pay a fresh covering search: %+v", first)
	}

	// The same ladder again: covering plan served from the cache, answers
	// reproduced bit for bit.
	_, second := postBatch(t, ts, `{"model":"walk","betas":[6,8,10],"horizon":100,"re":0.2}`)
	if !second.PlanCached || second.SearchSteps != 0 {
		t.Fatalf("second batch should hit the plan cache: %+v", second)
	}
	for i := range first.Answers {
		if second.Answers[i].P != first.Answers[i].P {
			t.Fatalf("identical batch diverged at %d: %v vs %v", i, second.Answers[i].P, first.Answers[i].P)
		}
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{not json`,
		`{"model":"walk","horizon":100}`,
		`{"model":"walk","betas":[],"horizon":100}`,
		`{"model":"walk","betas":[-1],"horizon":100}`,
		`{"model":"nope","betas":[8],"horizon":100}`,
		`{"model":"walk","observer":"nope","betas":[8],"horizon":100}`,
		`{"model":"walk","betas":[8],"horizon":100,"bogus":1}`,
	} {
		resp, _ := postJSON(t, ts, "/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch: status %d, want 405", resp.StatusCode)
	}
}

// The acceptance bar for sharded batches, through the HTTP surface: a
// daemon distributing the shared run over a worker fleet answers every
// threshold bit-for-bit as the single-machine daemon does.
func TestShardedBatchMatchesLocal(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		sharded, local := shardedServer(t, workers)
		const body = `{"model":"walk","betas":[6,9,12],"horizon":100,"re":0.2,"seed":7}`
		sresp, sout := postBatch(t, sharded, body)
		lresp, lout := postBatch(t, local, body)
		if sresp.StatusCode != 200 || lresp.StatusCode != 200 {
			t.Fatalf("%d workers: status sharded %d, local %d", workers, sresp.StatusCode, lresp.StatusCode)
		}
		if sout.SharedSteps != lout.SharedSteps || sout.Paths != lout.Paths {
			t.Fatalf("%d workers: shared run cost differs: %d/%d vs %d/%d",
				workers, sout.SharedSteps, sout.Paths, lout.SharedSteps, lout.Paths)
		}
		for i := range lout.Answers {
			if sout.Answers[i].P != lout.Answers[i].P || sout.Answers[i].StdErr != lout.Answers[i].StdErr {
				t.Fatalf("%d workers: answer %d differs: (P=%v ± %v) vs (P=%v ± %v)", workers, i,
					sout.Answers[i].P, sout.Answers[i].StdErr, lout.Answers[i].P, lout.Answers[i].StdErr)
			}
		}
	}
}

// Concurrency and isolation: concurrent /batch, /query and /tick traffic
// against one server must never mix answers across callers — every batch
// caller gets exactly its own thresholds back, in order, with estimates
// monotone within its ladder (exact within one shared run). Run under
// -race in CI.
func TestBatchConcurrentWithQueriesAndTicks(t *testing.T) {
	registry := experiments.Models(experiments.DefaultModelParams())
	tel := newTelemetry()
	srv := serve.NewServer(registry, serve.Config{
		PoolWorkers: 4, Seed: 1, CoalesceWindow: 10 * time.Millisecond, QueueDepth: 256,
		Tracer: tel.tracer,
	})
	t.Cleanup(srv.Close)
	hub := newStreamHub(srv, registry, nil, tel.engine, 1)
	tel.bind(srv, hub)
	tel.setState(stateReady)
	ts := httptest.NewServer(newMux(srv, hub, tel, &replicaSet{}))
	t.Cleanup(ts.Close)

	// A live stream so /tick has something to advance.
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)

	const callers = 6
	var wg sync.WaitGroup
	errs := make(chan error, callers*3)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each caller asks a distinct ladder; coalescing may merge any
			// subset of them into shared runs.
			b0 := 5 + float64(c)*0.25
			body := fmt.Sprintf(`{"model":"walk","betas":[%g,%g,%g],"horizon":100,"re":0.25}`, b0, b0+3, b0+6)
			resp, out := postBatch(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("caller %d: status %d", c, resp.StatusCode)
				return
			}
			if len(out.Answers) != 3 {
				errs <- fmt.Errorf("caller %d: %d answers", c, len(out.Answers))
				return
			}
			for i, want := range []float64{b0, b0 + 3, b0 + 6} {
				if out.Answers[i].Beta != want {
					errs <- fmt.Errorf("caller %d: answer %d echoes beta %v, want %v", c, i, out.Answers[i].Beta, want)
					return
				}
				if i > 0 && out.Answers[i].P > out.Answers[i-1].P {
					errs <- fmt.Errorf("caller %d: answers not monotone: %+v", c, out.Answers)
					return
				}
			}
		}(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":"walk","beta":%g,"horizon":100,"re":0.3}`, 6+float64(c)*0.5)
			resp, out := postQuery(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d", c, resp.StatusCode)
				return
			}
			if out.P <= 0 || out.P >= 1 {
				errs <- fmt.Errorf("query %d: estimate %v", c, out.P)
			}
		}(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts, "/tick", `{"stream":"walk"}`)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("tick %d: status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.BatchCallers != callers {
		t.Fatalf("batch callers served = %d, want %d", st.BatchCallers, callers)
	}
}
