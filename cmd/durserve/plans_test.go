package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"durability/internal/cluster"
	"durability/internal/exec"
	"durability/internal/experiments"
	"durability/internal/planstats"
	"durability/internal/replicate"
	"durability/internal/serve"
)

// planServer builds a fully wired daemon with the crossing-statistics
// ledger installed — the configuration main assembles — on the given
// execution backend (nil = in-process local sampling).
func planServer(t *testing.T, backend exec.Executor) *httptest.Server {
	t.Helper()
	registry := experiments.Models(experiments.DefaultModelParams())
	tel := newTelemetry()
	ledger := planstats.NewLedger()
	tel.bindPlanLedger(ledger, 0.05)
	srv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Executor: backend, Tracer: tel.tracer, Ledger: ledger})
	t.Cleanup(srv.Close)
	hub := newStreamHub(srv, registry, backend, tel.engine, 1)
	tel.bind(srv, hub)
	tel.setState(stateReady)
	ts := httptest.NewServer(newMux(srv, hub, tel, &replicaSet{}))
	t.Cleanup(ts.Close)
	return ts
}

// drivePlans sends one deterministic traffic mix: a repeated one-shot
// query (the repeat is a cache hit), a batch ladder, and a standing
// query advanced two ticks.
func drivePlans(t *testing.T, ts *httptest.Server) {
	t.Helper()
	const query = `{"model":"walk","beta":12,"horizon":100,"re":0.2,"seed":7}`
	for i := 0; i < 2; i++ {
		if resp, _ := postQuery(t, ts, query); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	if resp, _ := postJSON(t, ts, "/batch", `{"model":"walk","betas":[10,12,14],"horizon":100,"re":0.2,"seed":3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2,"seed":7}`)
	for i := 0; i < 2; i++ {
		if resp, _ := postJSON(t, ts, "/tick", `{"stream":"walk"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d: status %d", i, resp.StatusCode)
		}
	}
}

// GET /plans is a pure function of the driven traffic: two identically
// driven servers must render byte-identical listings (there are no
// duration fields in the payload). The guarantee holds per backend —
// the local and cluster engines sample in different round sizes, so
// their absolute counts differ, but each is deterministic — so the
// pairing is checked on both.
func TestPlansByteIdenticalAcrossServers(t *testing.T) {
	registry := experiments.Models(experiments.DefaultModelParams())
	addrs, stop, err := cluster.ServeLocal(registry, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	backends := []struct {
		name string
		open func() exec.Executor
	}{
		{"local", func() exec.Executor { return nil }},
		{"cluster", func() exec.Executor {
			backend := exec.NewCluster(addrs...)
			t.Cleanup(backend.Close)
			return backend
		}},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			a := planServer(t, bk.open())
			b := planServer(t, bk.open())
			drivePlans(t, a)
			drivePlans(t, b)

			rawA := getBytes(t, a, "/plans")
			rawB := getBytes(t, b, "/plans")
			if !bytes.Equal(rawA, rawB) {
				t.Errorf("identically driven servers rendered different /plans:\nA: %s\nB: %s", rawA, rawB)
			}

			var out plansResponse
			if err := json.Unmarshal(rawA, &out); err != nil {
				t.Fatal(err)
			}
			if len(out.Plans) == 0 {
				t.Fatal("no plans listed after driving queries")
			}
			booked, hits := 0, false
			for _, p := range out.Plans {
				if p.Runs > 0 {
					booked++
					if len(p.Levels) != len(p.Boundaries) {
						t.Errorf("plan %v: %d levels for %d boundaries", p.Key, len(p.Levels), len(p.Boundaries))
					}
					if p.Verdict == verdictUnobserved {
						t.Errorf("plan %v: booked %d runs but verdict is %q", p.Key, p.Runs, p.Verdict)
					}
				}
				if p.CacheHits > 0 {
					hits = true
				}
			}
			if booked == 0 {
				t.Error("no plan accumulated any booked run")
			}
			if !hits {
				t.Error("repeated query registered no cache hit")
			}
		})
	}
}

// The ledger must keep concurrent bookings keyed apart: batch runs book
// under their covering key (Set includes the threshold set), one-shot
// and standing queries under their own shape keys, and a GET /plans
// racing both must always decode cleanly with every entry's levels
// joined against its own plan's boundaries. Run with -race, this is
// also the data-race drill for the booking hot path.
func TestPlansConcurrentTrafficKeepsKeysApart(t *testing.T) {
	ts := planServer(t, nil)
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2,"seed":7}`)

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 3*rounds)
	post := func(path, body string) error {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	for i := 0; i < rounds; i++ {
		wg.Add(3)
		go func(i int) {
			defer wg.Done()
			errs <- post("/batch", fmt.Sprintf(`{"model":"walk","betas":[10,12,14],"horizon":100,"re":0.2,"seed":%d}`, 3+i))
		}(i)
		go func() {
			defer wg.Done()
			errs <- post("/tick", `{"stream":"walk"}`)
		}()
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/plans")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out plansResponse
			errs <- json.NewDecoder(resp.Body).Decode(&out)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var out plansResponse
	if err := json.Unmarshal(getBytes(t, ts, "/plans"), &out); err != nil {
		t.Fatal(err)
	}
	var coverKeys, shapeKeys int
	seen := make(map[planstats.Key]bool)
	for _, p := range out.Plans {
		if seen[p.Key] {
			t.Fatalf("key %v listed twice", p.Key)
		}
		seen[p.Key] = true
		if p.Key.Set != "" {
			coverKeys++
		} else {
			shapeKeys++
		}
		if p.Runs == 0 {
			continue
		}
		// The ledger entry joined by shape: mixed-key bookings would have
		// reset the lineage to a foreign shape and failed this join.
		if len(p.Levels) != len(p.Boundaries) {
			t.Errorf("plan %v: %d levels for %d boundaries", p.Key, len(p.Levels), len(p.Boundaries))
		}
		for i, ls := range p.Levels {
			if ls.Boundary != p.Boundaries[i] {
				t.Errorf("plan %v: level %d boundary %v != plan boundary %v (keys mixed)", p.Key, ls.Level, ls.Boundary, p.Boundaries[i])
			}
		}
	}
	if coverKeys == 0 {
		t.Error("no covering (batch) key booked")
	}
	if shapeKeys == 0 {
		t.Error("no per-shape key booked")
	}
}

// GET /streams carries each subscription's resolved plan: its shape,
// the plan-cache key it lives under, and the crossing summary the
// ledger booked for that key.
func TestStreamsCarryPlanDetail(t *testing.T) {
	ts := planServer(t, nil)
	sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2,"seed":7}`)
	if resp, _ := postJSON(t, ts, "/tick", `{"stream":"walk"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: status %d", resp.StatusCode)
	}

	var out streamStats
	if err := json.Unmarshal(getBytes(t, ts, "/streams"), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Plans) != 1 {
		t.Fatalf("plans %+v, want the one subscription's", out.Plans)
	}
	p := out.Plans[0]
	if p.ID != sub.ID || p.Stream != "walk" {
		t.Errorf("plan attributed to %q/%q, want %q/%q", p.ID, p.Stream, sub.ID, "walk")
	}
	if len(p.Boundaries) == 0 {
		t.Error("no plan boundaries after a tick")
	}
	if p.PlanKey == nil {
		t.Fatal("no plan key after a tick")
	}
	if p.Crossing == nil {
		t.Fatal("no crossing summary after a booked refresh")
	}
	if p.Crossing.Runs == 0 || p.Crossing.Roots == 0 || p.Crossing.Steps == 0 {
		t.Errorf("crossing summary empty: %+v", p.Crossing)
	}
	if !p.Crossing.Observed {
		t.Error("booked runs but no level observation recorded")
	}
}

// A follower's /readyz body is structured JSON carrying per-store
// replication lag; every other lifecycle state keeps the bare-text body
// orchestration scripts already parse.
func TestFollowerReadyzCarriesLag(t *testing.T) {
	tel := newTelemetry()
	tel.lagsFn = func() map[string]replicate.Lag {
		return map[string]replicate.Lag{
			"shard-0001": {AppliedLSN: 40, SourceLSN: 44, Records: 4, Bytes: 2048},
			"shard-0000": {AppliedLSN: 41, SourceLSN: 44, Records: 3, Bytes: 1024, Restored: true},
		}
	}
	tel.setState(stateFollowing)

	rec := httptest.NewRecorder()
	tel.handleReadyz(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("following /readyz status %d, want 503 (a follower is not ready to serve)", rec.Code)
	}
	var body readyzFollower
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("following /readyz is not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if body.State != stateFollowing {
		t.Errorf("state %q, want %q", body.State, stateFollowing)
	}
	if len(body.Stores) != 2 {
		t.Fatalf("stores %v, want both shards", body.Stores)
	}
	want := readyzLag{Bytes: 1024, Records: 3, AppliedLSN: 41, SourceLSN: 44, Restored: true}
	if got := body.Stores["shard-0000"]; got != want {
		t.Errorf("shard-0000 lag %+v, want %+v", got, want)
	}
	if got := body.Stores["shard-0001"]; got.Bytes != 2048 || got.Restored {
		t.Errorf("shard-0001 lag %+v", got)
	}

	// Map keys render sorted: the body is deterministic across renders.
	rec2 := httptest.NewRecorder()
	tel.handleReadyz(rec2, httptest.NewRequest("GET", "/readyz", nil))
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Error("two renders of the follower /readyz body differ")
	}

	// Non-follower states keep the plain-text contract.
	tel.setState(stateReady)
	rec3 := httptest.NewRecorder()
	tel.handleReadyz(rec3, httptest.NewRequest("GET", "/readyz", nil))
	if rec3.Code != http.StatusOK || strings.TrimSpace(rec3.Body.String()) != stateReady {
		t.Errorf("ready /readyz returned %d %q, want 200 %q", rec3.Code, rec3.Body.String(), stateReady)
	}
}
