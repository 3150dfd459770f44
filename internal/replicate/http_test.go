package replicate

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"durability/internal/persist"
)

// A follower of a sharded primary syncs every store at once; over HTTP it
// must keep one connection per store across polls, not re-dial the
// primary on every one.
func TestHTTPSourceReusesConnections(t *testing.T) {
	const nStores, syncs = 4, 20
	ctx := context.Background()
	root, mirror := t.TempDir(), t.TempDir()
	var primaries []*primaryStore
	stores := map[string]*persist.Store{}
	logs := map[string]*intLog{}
	for i := range nStores {
		name := persist.ShardStoreName(i)
		p := openPrimary(t, root, name)
		p.append(t, 1)
		p.checkpoint(t)
		primaries = append(primaries, p)
		stores[name], logs[name] = p.st, &intLog{}
	}
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(NewHandler(StoreSource{Stores: stores}, nil))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	f := NewFollower(Config{Source: HTTPSource{Base: srv.URL}, Dir: mirror, Hooks: hooksFor(logs)})
	defer f.Close()
	// Every store has a new record at every poll, so every sync fetches
	// from all of them at once.
	want := []int{1}
	for i := range syncs {
		want = append(want, i+2)
		for _, p := range primaries {
			p.append(t, i+2)
		}
		if _, err := f.syncOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for name, l := range logs {
		if lsn, vals := l.state(); lsn != int64(len(want)) || !equalInts(vals, want) {
			t.Fatalf("%s: lsn=%d vals=%v, want %v", name, lsn, vals, want)
		}
	}
	if n := dials.Load(); n > nStores {
		t.Fatalf("%d syncs of a %d-store primary opened %d connections, want at most %d", syncs, nStores, n, nStores)
	}
}
