package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"durability/internal/experiments"
	"durability/internal/mc"
	"durability/internal/persist"
	"durability/internal/serve"
	"durability/internal/stream"
)

// updatesStatus long-polls a handle past tick 0 and reports the status.
func updatesStatus(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/updates?id=" + id + "&since=0&timeoutSec=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// deleteStatus deletes a handle and reports the status.
func deleteStatus(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/subscribe?id="+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A handle is "sub-" and the engine's subscription ID in canonical form,
// so it needs no table of its own to survive a crash or a failover. A subscribe the
// engine rejects burns an ID, which is what sets handles apart from a
// count of successful subscribes.
func TestHandlesAreSubscriptionIDs(t *testing.T) {
	// drive subscribes good, rejected, good, good; deletes the last; ticks
	// once. It returns the two live handles and the deleted one.
	drive := func(t *testing.T, ts *httptest.Server) (a, b, gone subscribeResponse) {
		t.Helper()
		a = subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
		if resp, raw := postJSON(t, ts, "/subscribe", `{"model":"walk","beta":-1,"horizon":100,"re":0.2}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("rejected subscribe: status %d: %s", resp.StatusCode, raw)
		}
		b = subscribe(t, ts, `{"model":"walk","beta":8,"horizon":100,"re":0.2}`)
		gone = subscribe(t, ts, `{"model":"walk","beta":12,"horizon":100,"re":0.2}`)
		for _, s := range []subscribeResponse{a, b, gone} {
			if s.ID != handle(s.SubID) {
				t.Fatalf("handle %q for subscription %d", s.ID, s.SubID)
			}
		}
		if b.SubID != a.SubID+2 {
			t.Fatalf("subscription IDs %d then %d: the rejected subscribe did not burn an ID", a.SubID, b.SubID)
		}
		if got := deleteStatus(t, ts, gone.ID); got != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d", gone.ID, got)
		}
		tickRaw(t, ts, "walk")
		return a, b, gone
	}
	// check runs on the server that took over.
	check := func(t *testing.T, ts *httptest.Server, a, b, gone subscribeResponse) {
		t.Helper()
		for _, s := range []subscribeResponse{a, b} {
			if got := updatesStatus(t, ts, s.ID); got != http.StatusOK {
				t.Fatalf("/updates %s: status %d, want 200", s.ID, got)
			}
		}
		if got := updatesStatus(t, ts, gone.ID); got != http.StatusNotFound {
			t.Fatalf("/updates on deleted %s: status %d, want 404", gone.ID, got)
		}
		// Only the canonical form addresses a subscription.
		digits := strings.TrimPrefix(a.ID, "sub-")
		for _, id := range []string{"sub-0" + digits, "sub-+" + digits, "sub-" + digits + "%20", digits, "SUB-" + digits, "sub-"} {
			if got := updatesStatus(t, ts, id); got != http.StatusNotFound {
				t.Fatalf("/updates %q: status %d, want 404", id, got)
			}
			if got := deleteStatus(t, ts, id); got != http.StatusNotFound {
				t.Fatalf("DELETE %q: status %d, want 404", id, got)
			}
		}
		if got := deleteStatus(t, ts, b.ID); got != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d, want 204", b.ID, got)
		}
		if got := updatesStatus(t, ts, b.ID); got != http.StatusNotFound {
			t.Fatalf("/updates on deleted %s: status %d, want 404", b.ID, got)
		}
		if got := deleteStatus(t, ts, b.ID); got != http.StatusNotFound {
			t.Fatalf("second DELETE %s: status %d, want 404", b.ID, got)
		}
		if got := updatesStatus(t, ts, a.ID); got != http.StatusOK {
			t.Fatalf("/updates %s after a sibling's delete: status %d", a.ID, got)
		}
	}

	t.Run("kill-restart", func(t *testing.T) {
		dir := t.TempDir()
		ts, hub := durableServer(t, dir)
		a, b, gone := drive(t, ts)
		ts.Close()
		hub.closeStores()
		ts2, _ := durableServer(t, dir)
		check(t, ts2, a, b, gone)
	})

	t.Run("promotion", func(t *testing.T) {
		const shards = 2
		primary := durableSharded(t, t.TempDir(), shards)
		fs := startTestFollower(t, primary.ts.URL, t.TempDir(), shards)
		a, b, gone := drive(t, primary.ts)
		// Zero lag is measured against the last manifest the follower
		// fetched; wait until both shards applied drive's tick.
		deadline := time.Now().Add(15 * time.Second)
		for {
			ticks, _ := fs.hub.engine.ShardTicks("walk")
			if len(ticks) == shards && ticks[0] == 1 && ticks[1] == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower never applied the tick: shard ticks %v", ticks)
			}
			time.Sleep(10 * time.Millisecond)
		}
		primary.ts.Close()
		primary.hub.closeStores()
		promoted, err := fs.fr.promote()
		if err != nil {
			t.Fatalf("promote: %v", err)
		}
		fs.tel.setState(stateReady)
		rep := &replicaSet{}
		rep.enablePrimary(promoted, newAckTable(nil))
		ts := httptest.NewServer(newMux(fs.srv, fs.hub, fs.tel, rep))
		defer ts.Close()
		check(t, ts, a, b, gone)
	})
}

// Feeds are recomputed from the seed, so a restart under another -seed
// would publish states the journaled ticks never saw. Recovery compares
// the recomputed state with the journaled one and refuses by name; the
// directory stays intact for a restart under the right seed.
func TestRecoveryRefusesAnotherSeed(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	stack := durableSharded(t, dir, shards)
	subscribe(t, stack.ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	for i := 0; i < 3; i++ {
		tickRaw(t, stack.ts, "walk")
	}
	stack.ts.Close()
	stack.hub.closeStores()

	registry := experiments.Models(experiments.DefaultModelParams())
	tel := newTelemetry()
	srv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 2, Tracer: tel.tracer})
	defer srv.Close()
	hub := newStreamHub(srv, registry, nil, tel.engine, shards)
	tel.bind(srv, hub)
	stores, err := openStores(dir, persist.Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	_, err = hub.takeOver(stores, (*persist.Lineage).Recover)
	closeAll(stores)
	if err == nil || !strings.Contains(err.Error(), `stream "walk"`) || !strings.Contains(err.Error(), "-seed") {
		t.Fatalf("recovery under another -seed: err %v, want a refusal naming the stream and -seed", err)
	}

	again := durableSharded(t, dir, shards)
	if got := tickRaw(t, again.ts, "walk"); !bytes.Contains(got, []byte(`"tick":4`)) {
		t.Fatalf("restart under the original seed: %s", got)
	}
}

// A tick exists once any shard has journaled it: when the crash tears
// one shard's record of the last tick, recovery republishes that tick to
// the lagging shard, and every later tick equals an uninterrupted run's.
func TestRecoveryCatchesUpTornShard(t *testing.T) {
	const shards, preTicks, postTicks = 2, 3, 3
	golden := durableSharded(t, t.TempDir(), shards)
	driveReplicaSubs(t, golden.ts)
	var want [][]byte
	for i := 0; i < preTicks+postTicks; i++ {
		want = append(want, tickRaw(t, golden.ts, "walk"))
	}

	dir := t.TempDir()
	stack := durableSharded(t, dir, shards)
	driveReplicaSubs(t, stack.ts)
	for i := 0; i < preTicks; i++ {
		tickRaw(t, stack.ts, "walk")
	}
	stack.ts.Close()
	stack.hub.closeStores()

	wals, err := filepath.Glob(filepath.Join(dir, persist.ShardStoreName(1), "wal-*"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal segments (%v)", err)
	}
	sort.Strings(wals)
	newest := wals[len(wals)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-4); err != nil {
		t.Fatal(err)
	}

	restarted := durableSharded(t, dir, shards)
	ticks, _ := restarted.hub.engine.ShardTicks("walk")
	for i, tk := range ticks {
		if tk != preTicks {
			t.Fatalf("after recovery shard %d is at tick %d, want %d", i, tk, preTicks)
		}
	}
	for i := preTicks; i < preTicks+postTicks; i++ {
		if got := tickRaw(t, restarted.ts, "walk"); !bytes.Equal(got, want[i]) {
			t.Fatalf("tick %d after recovery:\n%s\nwant\n%s", i+1, got, want[i])
		}
	}
}

// A crash inside a registration can leave the stream on some shards
// only. Recovery finishes the registration, and the stream then serves
// like one registered whole.
func TestRecoveryFinishesTornRegistration(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	stack := durableSharded(t, dir, shards)
	proc, _, err := stack.hub.resolver("walk", "walk")
	if err != nil {
		t.Fatal(err)
	}
	if err := stack.hub.engine.Shard(0).RegisterModel("walk", "walk", proc, proc.Initial()); err != nil {
		t.Fatal(err)
	}
	stack.ts.Close()
	stack.hub.closeStores()

	restarted := durableSharded(t, dir, shards)
	if !restarted.hub.engine.Shard(1).Has("walk") {
		t.Fatal("recovery left the torn registration unfinished on shard 1")
	}
	fresh := durableSharded(t, t.TempDir(), shards)
	for _, ts := range []*httptest.Server{restarted.ts, fresh.ts} {
		driveReplicaSubs(t, ts)
	}
	for i := 0; i < 2; i++ {
		if a, b := tickRaw(t, restarted.ts, "walk"), tickRaw(t, fresh.ts, "walk"); !bytes.Equal(a, b) {
			t.Fatalf("tick %d after a finished registration:\n%s\nwant\n%s", i+1, a, b)
		}
	}
}

// toAnswerJSON computes the 95% interval with a hoisted critical value;
// it must equal Result.CI(0.95)'s bounds bit for bit.
func TestAnswerIntervalIsResultCI(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	specials := []float64{0, -0.0, 1e-300, 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 20000; i++ {
		r := mc.Result{P: rnd.Float64(), Variance: rnd.ExpFloat64() * math.Pow(10, float64(rnd.Intn(20)-18))}
		if i%10 == 0 {
			r.Variance = specials[rnd.Intn(len(specials))]
		}
		if i%13 == 0 {
			r.P = specials[rnd.Intn(len(specials))]
		}
		ci := r.CI(0.95)
		wantLo := math.Max(finiteOr(ci.Lo, 0), 0)
		wantHi := math.Min(finiteOr(ci.Hi, 1), 1)
		got := toAnswerJSON(stream.Answer{Result: r})
		if math.Float64bits(got.CILo) != math.Float64bits(wantLo) || math.Float64bits(got.CIHi) != math.Float64bits(wantHi) {
			t.Fatalf("result %+v: interval [%v, %v], Result.CI gives [%v, %v]", r, got.CILo, got.CIHi, wantLo, wantHi)
		}
	}
}
