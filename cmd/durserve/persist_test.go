package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"durability/internal/experiments"
	"durability/internal/persist"
	"durability/internal/serve"
)

// durableServer builds a durserve stack persisting to dir, mirroring
// testServerHub. Every call with one dir must use the same settings, as a
// real restart would.
func durableServer(t *testing.T, dir string) (*httptest.Server, *streamHub) {
	t.Helper()
	registry := experiments.Models(experiments.DefaultModelParams())
	tel := newTelemetry()
	srv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Tracer: tel.tracer})
	t.Cleanup(srv.Close)
	hub := newStreamHub(srv, registry, 0.15, 50_000_000, 1, nil, tel.engine, 1)
	tel.bind(srv, hub)
	hs, err := openHubStores(dir, persist.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	// Mirror main's readiness and recovery-metric sequence, so tests can
	// assert on the post-recovery /metrics surface.
	tel.setState(stateReplaying)
	began := time.Now()
	replayed, err := hub.attachStores(hs)
	if err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	tel.observeRecovery(int64(replayed), time.Since(began))
	tel.setState(stateReady)
	ts := httptest.NewServer(newMux(srv, hub, tel, &replicaSet{}))
	t.Cleanup(ts.Close)
	return ts, hub
}

// tickOnce advances a stream one step and returns the lone refresh.
func tickOnce(t *testing.T, ts *httptest.Server, stream string) answerJSON {
	t.Helper()
	resp, raw := postJSON(t, ts, "/tick", `{"stream":"`+stream+`","steps":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d: %s", resp.StatusCode, raw)
	}
	var tk tickResponse
	if err := json.Unmarshal(raw, &tk); err != nil {
		t.Fatal(err)
	}
	if len(tk.Refreshes) != 1 || tk.Refreshes[0].Error != "" {
		t.Fatalf("tick response %+v", tk)
	}
	return tk.Refreshes[0].Answer
}

// goldenAnswers runs the whole trajectory on a never-restarted in-memory
// server: the reference the recovered server must match bit for bit.
func goldenAnswers(t *testing.T, ticks int) []answerJSON {
	t.Helper()
	ts := testServer(t)
	if sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`); sub.ID != "sub-1" {
		t.Fatalf("golden subscribe %+v", sub)
	}
	out := make([]answerJSON, 0, ticks)
	for i := 0; i < ticks; i++ {
		out = append(out, tickOnce(t, ts, "walk"))
	}
	return out
}

// A durserve killed without warning (no shutdown, no final checkpoint)
// and restarted on its -data-dir must serve bit-for-bit the answers an
// uninterrupted server would — including when the crash tears the last
// shard WAL record, in which case recovery completes the torn tick by
// recomputing the feed trajectory and republishing the missing update.
func TestDurserveCrashRestartMatchesUninterrupted(t *testing.T) {
	const totalTicks, crashAfter = 11, 6
	golden := goldenAnswers(t, totalTicks)

	for _, tearTail := range []bool{false, true} {
		name := "clean-tail"
		if tearTail {
			name = "torn-tail"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ts, hub := durableServer(t, dir)
			if sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`); sub.ID != "sub-1" {
				t.Fatalf("subscribe %+v", sub)
			}
			for i := 0; i < crashAfter; i++ {
				if got := tickOnce(t, ts, "walk"); got != golden[i] {
					t.Fatalf("pre-crash tick %d: %+v != golden %+v", i+1, got, golden[i])
				}
			}
			// The crash: close the listener and release the store's file
			// handle, but write no checkpoint — the state must come back
			// from the boot checkpoint plus the WAL alone.
			ts.Close()
			hub.closeStores()

			if tearTail {
				// Tear the engine shard's newest segment mid-record: the
				// shard loses the last tick's refresh, but the hub lineage
				// still holds the feed step, so recovery must catch the
				// shard up instead of serving from a short state.
				wals, err := filepath.Glob(filepath.Join(dir, shardStoreName(0), "wal-*"))
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
			}

			ts2, hub2 := durableServer(t, dir)
			if got, want := hub2.stats().Subscriptions, 1; got != want {
				t.Fatalf("recovered %d subscriptions, want %d", got, want)
			}
			for i := crashAfter; i < totalTicks; i++ {
				if got := tickOnce(t, ts2, "walk"); got != golden[i] {
					t.Fatalf("post-recovery tick %d: %+v != golden %+v", i+1, got, golden[i])
				}
			}
		})
	}
}

// The recovered handle table must serve /updates on pre-crash
// subscription IDs, and a recovered subscription must long-poll exactly
// like a never-restarted one.
func TestDurserveRecoveredHandleServesUpdates(t *testing.T) {
	dir := t.TempDir()
	ts, hub := durableServer(t, dir)
	sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	want := tickOnce(t, ts, "walk")
	ts.Close()
	hub.closeStores()

	ts2, _ := durableServer(t, dir)
	resp, err := http.Get(ts2.URL + "/updates?id=" + sub.ID + "&since=0&timeoutSec=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates status %d", resp.StatusCode)
	}
	var got answerJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered answer %+v, pre-crash answer %+v", got, want)
	}
}

// A deleted subscription must stay deleted across the restart.
func TestDurserveUnsubscribeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts, hub := durableServer(t, dir)
	sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/subscribe?id="+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unsubscribe status %d", resp.StatusCode)
	}
	ts.Close()
	hub.closeStores()

	ts2, hub2 := durableServer(t, dir)
	if n := hub2.stats().Subscriptions; n != 0 {
		t.Fatalf("recovered %d subscriptions, want 0", n)
	}
	resp2, err := http.Get(ts2.URL + "/updates?id=" + sub.ID + "&since=0&timeoutSec=1")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("updates on deleted subscription: status %d, want 404", resp2.StatusCode)
	}
}

// On shutdown, in-flight GET /updates long-polls resolve with 204
// (shutting down) instead of hanging until their timeout or being
// dropped mid-poll.
func TestShutdownResolvesLongPollsWith204(t *testing.T) {
	ts, hub := testServerHub(t)
	sub := subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)

	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/updates?id=" + sub.ID + "&since=0&timeoutSec=60")
		if err != nil {
			done <- result{err: err}
			return
		}
		resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()

	// Let the poll arm, then begin shutdown.
	time.Sleep(100 * time.Millisecond)
	hub.beginShutdown()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("long poll failed: %v", r.err)
		}
		if r.status != http.StatusNoContent {
			t.Fatalf("long poll resolved with %d, want 204", r.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll still hanging 5s after shutdown began")
	}
}

// A crash between the engine's subscribe record and the hub's bind
// record (or a snapshot landing between the two captures) recovers a
// live subscription no handle can address. Recovery must reap it — the
// client never received a handle, so the subscribe never happened from
// its point of view — instead of refreshing it forever.
func TestRecoveryReapsHandleLessSubscriptions(t *testing.T) {
	dir := t.TempDir()
	ts, hub := durableServer(t, dir)
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	// Manufacture the crash window: the engine holds the subscription
	// but the handle table forgets it, and a checkpoint captures exactly
	// that split (its HubLSN then makes replay skip the bind record).
	hub.mu.Lock()
	delete(hub.subs, "sub-1")
	hub.mu.Unlock()
	if err := hub.checkpoint(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	hub.closeStores()

	_, hub2 := durableServer(t, dir)
	st := hub2.stats()
	if st.Engine.Subscriptions != 0 || st.Subscriptions != 0 {
		t.Fatalf("recovered %d engine / %d hub subscriptions, want the orphan reaped", st.Engine.Subscriptions, st.Subscriptions)
	}
}
