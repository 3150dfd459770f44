package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"durability/internal/persist"
	"durability/internal/replicate"
	"durability/internal/serve"
)

// replicaStack is a shards-wide durable durserve with the primary side
// of replication mounted — what `durserve -data-dir ... -shards N`
// builds, driven through httptest.
type replicaStack struct {
	ts     *httptest.Server
	hub    *streamHub
	tel    *telemetrySet
	rep    *replicaSet
	hs     *hubStores
	acks   *ackTable
	shards int
}

func durableSharded(t *testing.T, dir string, shards int) *replicaStack {
	t.Helper()
	registry := buildRegistry(modelParams{
		lambda: 0.5, mu1: 2, mu2: 2,
		u0: 15, premium: 6, claimLam: 0.8, claimLo: 5, claimHi: 10,
		sigma: 1, s0: 1000,
	})
	tel := newTelemetry()
	srv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Tracer: tel.tracer})
	t.Cleanup(srv.Close)
	hub := newStreamHub(srv, registry, 0.15, 50_000_000, 1, nil, tel.engine, shards)
	tel.bind(srv, hub)
	hs, err := openHubStores(dir, persist.Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	if _, err := hub.attachStores(hs); err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	acks := newAckTable(tel.replica)
	rep := &replicaSet{}
	rep.enablePrimary(hs, acks)
	tel.setState(stateReady)
	ts := httptest.NewServer(newMux(srv, hub, tel, rep))
	t.Cleanup(ts.Close)
	return &replicaStack{ts: ts, hub: hub, tel: tel, rep: rep, hs: hs, acks: acks, shards: shards}
}

// followerStack is the other half: a warm standby mirroring a primary's
// store set, what `durserve -follow URL -data-dir ...` builds.
type followerStack struct {
	hub *streamHub
	srv *serve.Server
	tel *telemetrySet
	fr  *followerRun
}

func startTestFollower(t *testing.T, primaryURL, dir string, shards int) *followerStack {
	t.Helper()
	registry := buildRegistry(modelParams{
		lambda: 0.5, mu1: 2, mu2: 2,
		u0: 15, premium: 6, claimLam: 0.8, claimLo: 5, claimHi: 10,
		sigma: 1, s0: 1000,
	})
	tel := newTelemetry()
	srv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Tracer: tel.tracer})
	t.Cleanup(srv.Close)
	hub := newStreamHub(srv, registry, 0.15, 50_000_000, 1, nil, tel.engine, shards)
	tel.bind(srv, hub)
	tel.setState(stateFollowing)
	fr := startFollower(hub, replicate.HTTPSource{Base: primaryURL}, dir, persist.Options{},
		10*time.Millisecond, 0, tel.followerApply, func() {})
	t.Cleanup(func() { fr.follower.Close() })
	return &followerStack{hub: hub, srv: srv, tel: tel, fr: fr}
}

// waitCaughtUp polls the follower until every replicated store reports
// zero byte lag behind the primary's manifest.
func waitCaughtUp(t *testing.T, fs *followerStack, names []string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		lags := fs.fr.follower.Lags()
		caught := len(lags) >= len(names)
		for _, name := range names {
			lag, ok := lags[name]
			if !ok || lag.Bytes != 0 || lag.Records != 0 {
				caught = false
			}
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: lags %+v", lags)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tickRaw advances a stream and returns the raw /tick response bytes —
// the full refresh set, whose encoding is part of the deterministic
// contract, so byte comparison is the strongest equality available.
func tickRaw(t *testing.T, ts *httptest.Server, stream string) []byte {
	t.Helper()
	resp, raw := postJSON(t, ts, "/tick", `{"stream":"`+stream+`","steps":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// driveReplicaSequence registers the fixed subscription set every
// failover test drives: three standing queries over two streams,
// spread across shards by the hash ring.
func driveReplicaSubs(t *testing.T, ts *httptest.Server) {
	t.Helper()
	subscribe(t, ts, `{"model":"walk","beta":15,"horizon":100,"re":0.2}`)
	subscribe(t, ts, `{"model":"queue","beta":26,"horizon":500,"re":0.2}`)
	subscribe(t, ts, `{"model":"walk","beta":8,"horizon":100,"re":0.2}`)
}

// TestDurserveShardCountInvariant: a 4-shard daemon serves bit-for-bit
// the tick responses a 1-shard daemon serves — subscription placement
// never leaks into answers, all the way through the HTTP encoding.
func TestDurserveShardCountInvariant(t *testing.T) {
	one := durableSharded(t, t.TempDir(), 1)
	four := durableSharded(t, t.TempDir(), 4)
	driveReplicaSubs(t, one.ts)
	driveReplicaSubs(t, four.ts)
	for i := 0; i < 6; i++ {
		stream := "walk"
		if i%2 == 1 {
			stream = "queue"
		}
		a, b := tickRaw(t, one.ts, stream), tickRaw(t, four.ts, stream)
		if !bytes.Equal(a, b) {
			t.Fatalf("tick %d diverged across shard counts:\n1 shard: %s\n4 shards: %s", i+1, a, b)
		}
	}
}

// TestFinalShutdownCoversAllShards is the SIGTERM regression: the final
// checkpoint must capture every lineage — the hub and each shard — so a
// clean restart replays zero WAL events. Before the fix only a single
// store was checkpointed, stranding shard tails in the WAL.
func TestFinalShutdownCoversAllShards(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	stack := durableSharded(t, dir, shards)
	driveReplicaSubs(t, stack.ts)
	for i := 0; i < 4; i++ {
		tickRaw(t, stack.ts, "walk")
		tickRaw(t, stack.ts, "queue")
	}
	if err := finalShutdown(stack.hub, stack.acks, 0); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
	stack.ts.Close()
	stack.hub.closeStores()

	for _, name := range storeNames(shards) {
		snaps, err := filepath.Glob(filepath.Join(dir, name, "snap-*"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("final checkpoint left no snapshot in %s (err %v)", name, err)
		}
	}

	restarted := durableSharded(t, dir, shards)
	if n := restarted.hub.stats().Subscriptions; n != 3 {
		t.Fatalf("restart recovered %d subscriptions, want 3", n)
	}
	// The restart's own attachStores reports the replay count through the
	// recovery path; re-derive it directly to assert the zero.
	registry := buildRegistry(modelParams{
		lambda: 0.5, mu1: 2, mu2: 2,
		u0: 15, premium: 6, claimLam: 0.8, claimLo: 5, claimHi: 10,
		sigma: 1, s0: 1000,
	})
	tel := newTelemetry()
	srv := serve.NewServer(registry, serve.Config{PoolWorkers: 2, Seed: 1, Tracer: tel.tracer})
	defer srv.Close()
	restarted.ts.Close()
	restarted.hub.closeStores()
	hub := newStreamHub(srv, registry, 0.15, 50_000_000, 1, nil, tel.engine, shards)
	tel.bind(srv, hub)
	hs, err := openHubStores(dir, persist.Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	replayed, err := hub.attachStores(hs)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("clean shutdown still left %d WAL events to replay; the final checkpoint missed a lineage", replayed)
	}
}

// TestWaitForAcks pins the shutdown handshake: a primary that never saw
// a follower exits immediately, one whose follower lags waits out the
// timeout, and one whose follower catches up proceeds as soon as the
// acks cover the final LSNs.
func TestWaitForAcks(t *testing.T) {
	final := map[string]int64{"hub": 5, "shard-0000": 9}

	t.Run("no-follower", func(t *testing.T) {
		at := newAckTable(nil)
		start := time.Now()
		if !waitForAcks(at, final, 5*time.Second) {
			t.Fatal("ack wait failed with no follower")
		}
		if time.Since(start) > time.Second {
			t.Fatal("ack wait blocked with no follower")
		}
	})

	t.Run("lagging-follower-times-out", func(t *testing.T) {
		at := newAckTable(nil)
		at.record(map[string]int64{"hub": 5, "shard-0000": 7})
		if waitForAcks(at, final, 150*time.Millisecond) {
			t.Fatal("ack wait reported covered while shard-0000 lagged")
		}
	})

	t.Run("follower-catches-up", func(t *testing.T) {
		at := newAckTable(nil)
		at.record(map[string]int64{"hub": 5, "shard-0000": 7})
		go func() {
			time.Sleep(120 * time.Millisecond)
			at.record(map[string]int64{"shard-0000": 9})
		}()
		if !waitForAcks(at, final, 10*time.Second) {
			t.Fatal("ack wait missed the catching-up follower")
		}
	})
}

// TestFollowerPromoteServesIdenticalAnswers is the in-process failover
// e2e: a 2-shard primary replicates to a warm follower; the primary
// performs its SIGTERM handover (final checkpoint + follower ack) and
// dies; the promoted follower must serve bit-for-bit the tick responses
// the primary would have kept serving — same handles, same answers.
func TestFollowerPromoteServesIdenticalAnswers(t *testing.T) {
	const shards, preTicks, postTicks = 2, 3, 4
	names := storeNames(shards)

	// Golden: one uninterrupted primary driven through the whole
	// trajectory.
	golden := durableSharded(t, t.TempDir(), shards)
	driveReplicaSubs(t, golden.ts)
	var goldenTicks [][]byte
	for i := 0; i < preTicks+postTicks; i++ {
		goldenTicks = append(goldenTicks, tickRaw(t, golden.ts, "walk"))
		goldenTicks = append(goldenTicks, tickRaw(t, golden.ts, "queue"))
	}

	// The doomed primary and its follower.
	primary := durableSharded(t, t.TempDir(), shards)
	followDir := t.TempDir()
	fs := startTestFollower(t, primary.ts.URL, followDir, shards)

	driveReplicaSubs(t, primary.ts)
	for i := 0; i < preTicks; i++ {
		a := tickRaw(t, primary.ts, "walk")
		b := tickRaw(t, primary.ts, "queue")
		if !bytes.Equal(a, goldenTicks[2*i]) || !bytes.Equal(b, goldenTicks[2*i+1]) {
			t.Fatalf("primary tick %d diverged from golden", i+1)
		}
	}
	waitCaughtUp(t, fs, names)

	// SIGTERM handover: the final checkpoint covers every lineage and the
	// follower acknowledges the final LSNs before the primary lets go.
	if err := finalShutdown(primary.hub, primary.acks, 10*time.Second); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
	if !primary.acks.everAcked() {
		t.Fatal("follower never acknowledged replication progress")
	}
	if !primary.acks.covered(primary.hs.lastLSNs()) {
		t.Fatal("primary exited before the follower acknowledged the final LSNs")
	}
	waitCaughtUp(t, fs, names)
	primary.ts.Close()
	primary.hub.closeStores()

	// Promote and serve — the same wiring main performs on takeover:
	// the mirrored stores become the replication source for the next
	// generation of followers.
	phs, err := fs.fr.promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	fs.tel.setState(stateReady)
	rep := &replicaSet{}
	rep.enablePrimary(phs, newAckTable(nil))
	ts := httptest.NewServer(newMux(fs.srv, fs.hub, fs.tel, rep))
	defer ts.Close()

	if n := fs.hub.stats().Subscriptions; n != 3 {
		t.Fatalf("promoted follower serves %d subscriptions, want 3", n)
	}
	for i := preTicks; i < preTicks+postTicks; i++ {
		a := tickRaw(t, ts, "walk")
		b := tickRaw(t, ts, "queue")
		if !bytes.Equal(a, goldenTicks[2*i]) {
			t.Fatalf("promoted tick %d (walk) diverged from golden:\n%s\n%s", i+1, a, goldenTicks[2*i])
		}
		if !bytes.Equal(b, goldenTicks[2*i+1]) {
			t.Fatalf("promoted tick %d (queue) diverged from golden:\n%s\n%s", i+1, b, goldenTicks[2*i+1])
		}
	}

	// The promoted follower serves /updates on the pre-crash handle and
	// can itself feed a next-generation follower.
	resp, err := http.Get(ts.URL + "/updates?id=sub-1&since=0&timeoutSec=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates on promoted follower: status %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/replicate/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("promoted follower's /replicate/manifest: status %d, want 200", resp2.StatusCode)
	}
}

// TestOpenHubStoresRefusesLayoutDrift: the partitioned layout refuses a
// pre-sharding data directory and a shard-count change — both would
// silently re-home state.
func TestOpenHubStoresRefusesLayoutDrift(t *testing.T) {
	t.Run("legacy-single-store", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001"), []byte("DURWAL1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openHubStores(dir, persist.Options{}, 1); err == nil {
			t.Fatal("openHubStores accepted a pre-sharding layout")
		}
	})
	t.Run("shard-count-change", func(t *testing.T) {
		dir := t.TempDir()
		hs, err := openHubStores(dir, persist.Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		hs.Close()
		if _, err := openHubStores(dir, persist.Options{}, 3); err == nil {
			t.Fatal("openHubStores reopened a 2-shard directory as 3 shards")
		}
		if _, err := openHubStores(dir, persist.Options{}, 1); err == nil {
			t.Fatal("openHubStores reopened a 2-shard directory as 1 shard")
		}
	})
}

// TestPromoteEndpointStates pins the HTTP surface: POST /promote on a
// non-follower answers 409, /replicate/* without replication enabled
// answers 503.
func TestPromoteEndpointStates(t *testing.T) {
	ts := testServer(t) // in-memory daemon: no stores, no follower
	resp, err := http.Post(ts.URL+"/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /promote on non-follower: status %d, want 409", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/replicate/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /replicate/manifest without stores: status %d, want 503", resp2.StatusCode)
	}
}

// manifestOnlySource serves a canned manifest after a configurable
// number of failures — the follower's startup-discovery cases.
type manifestOnlySource struct {
	names    []string
	failures int
	calls    int
}

func (s *manifestOnlySource) Manifest(ctx context.Context) (replicate.Manifest, error) {
	s.calls++
	if s.calls <= s.failures {
		return replicate.Manifest{}, errors.New("primary not up yet")
	}
	var m replicate.Manifest
	for _, n := range s.names {
		m.Stores = append(m.Stores, replicate.StoreManifest{Name: n})
	}
	return m, nil
}

func (s *manifestOnlySource) Fetch(ctx context.Context, store, file string, offset, max int64) ([]byte, error) {
	return nil, errors.New("manifest-only source")
}

// TestDiscoverShardCount pins the follower's layout adoption: the shard
// count comes from the primary's manifest (retrying through startup
// races), and a manifest without the hub+shard layout is refused rather
// than guessed at.
func TestDiscoverShardCount(t *testing.T) {
	n, err := discoverShardCount(&manifestOnlySource{names: storeNames(4)}, time.Second)
	if err != nil || n != 4 {
		t.Fatalf("discoverShardCount(hub+4 shards) = %d, %v; want 4, nil", n, err)
	}
	n, err = discoverShardCount(&manifestOnlySource{names: storeNames(1), failures: 2}, 5*time.Second)
	if err != nil || n != 1 {
		t.Fatalf("discoverShardCount with startup races = %d, %v; want 1, nil", n, err)
	}
	if _, err := discoverShardCount(&manifestOnlySource{names: []string{"hub"}}, time.Second); err == nil {
		t.Fatal("discoverShardCount accepted a manifest with no shard stores")
	}
	if _, err := discoverShardCount(&manifestOnlySource{failures: 1 << 30}, 300*time.Millisecond); err == nil {
		t.Fatal("discoverShardCount returned without a reachable primary")
	}
}
