package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	ts, hub := durableServerConfig(t, dir, serve.Config{PoolWorkers: 2, Seed: 1})
	return ts, hub
}

// durableServerConfig is durableServer under cfg.
func durableServerConfig(t *testing.T, dir string, cfg serve.Config) (*httptest.Server, *streamHub) {
	t.Helper()
	registry := experiments.Models(experiments.DefaultModelParams())
	tel := newTelemetry()
	cfg.Tracer = tel.tracer
	srv := serve.NewServer(registry, cfg)
	t.Cleanup(srv.Close)
	hub := newStreamHub(srv, registry, nil, tel.engine, 1)
	tel.bind(srv, hub)
	stores, err := openStores(dir, persist.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror main's readiness and recovery-metric sequence, so tests can
	// assert on the post-recovery /metrics surface.
	tel.setState(stateReplaying)
	began := time.Now()
	replayed, err := hub.takeOver(stores, (*persist.Lineage).Recover)
	if err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	t.Cleanup(hub.closeStores)
	tel.observeRecovery(int64(replayed), time.Since(began))
	tel.setState(stateReady)
	ts := httptest.NewServer(newMux(srv, hub, tel, &replicaSet{}))
	t.Cleanup(ts.Close)
	return ts, hub
}

// POST /subscribe holds a horizon to -max-horizon as /query does: an
// over-cap request answers 400 before it creates a stream, a
// subscription or a WAL record, and one within the cap answers the body
// an uncapped server answers.
func TestSubscribeHonoursMaxHorizon(t *testing.T) {
	ts, hub := durableServerConfig(t, t.TempDir(), serve.Config{PoolWorkers: 2, Seed: 1, MaxHorizon: 200})
	resp, raw := postJSON(t, ts, "/subscribe", `{"model":"walk","beta":15,"horizon":500,"re":0.2}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "exceeds the server's cap 200") {
		t.Fatalf("over-cap subscribe: status %d (%s), want 400 naming the cap", resp.StatusCode, raw)
	}
	if st := hub.stats(); st.Engine.Streams != 0 || st.Subscriptions != 0 {
		t.Fatalf("a refused subscribe left %d streams and %d subscriptions", st.Engine.Streams, st.Subscriptions)
	}
	if lsns := hub.lastLSNs(); lsns[persist.ShardStoreName(0)] != 0 {
		t.Fatalf("a refused subscribe journaled records: last LSNs %v", lsns)
	}

	const body = `{"model":"walk","beta":15,"horizon":100,"re":0.2}`
	resp, capped := postJSON(t, ts, "/subscribe", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-cap subscribe: status %d (%s)", resp.StatusCode, capped)
	}
	if _, uncapped := postJSON(t, testServer(t), "/subscribe", body); !bytes.Equal(capped, uncapped) {
		t.Fatalf("capped server answered\n%s\nuncapped server\n%s", capped, uncapped)
	}
}

// A subscribe the engine's spec check refuses leaves nothing behind: it
// answers 400 before the stream is created, so /streams shows no stream
// and no subscription and the journal holds no byte.
func TestRefusedSubscribeLeavesNothing(t *testing.T) {
	ts, _ := durableServer(t, t.TempDir())
	resp, raw := postJSON(t, ts, "/subscribe", `{"model":"walk","beta":-1,"horizon":100}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "must be positive") {
		t.Fatalf("negative-threshold subscribe: status %d (%s), want 400 naming the threshold", resp.StatusCode, raw)
	}
	var st streamStats
	if err := json.Unmarshal(getBytes(t, ts, "/streams"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Streams != 0 || st.Subscriptions != 0 {
		t.Fatalf("a refused subscribe left %d streams and %d subscriptions", st.Engine.Streams, st.Subscriptions)
	}
	body := string(getBytes(t, ts, "/metrics"))
	if got := metricValue(t, body, `durserve_wal_bytes_total{store="shard-0000"}`); got != 0 {
		t.Fatalf("a refused subscribe journaled %d WAL bytes", got)
	}
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
// WAL record of its only shard: no lineage then holds that tick, so it
// never happened, and the restart serves it again, equal to the answer
// the client already saw.
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

			resume := crashAfter
			if tearTail {
				// Tear the engine shard's newest segment mid-record: the
				// shard loses the last tick, and with it the daemon does.
				resume--
				wals, err := filepath.Glob(filepath.Join(dir, persist.ShardStoreName(0), "wal-*"))
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
			for i := resume; i < totalTicks; i++ {
				if got := tickOnce(t, ts2, "walk"); got != golden[i] {
					t.Fatalf("post-recovery tick %d: %+v != golden %+v", i+1, got, golden[i])
				}
			}
		})
	}
}

// Pre-crash handles must serve /updates after recovery, and a recovered
// subscription must long-poll exactly like a never-restarted one.
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
