package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"durability/internal/persist"
	"durability/internal/replicate"
	"durability/internal/stream"
	"durability/internal/telemetry"
)

// WAL-follower replication for the HTTP daemon. A primary started with
// -data-dir exposes its store set (the hub lineage plus one per engine
// shard) through the /replicate endpoints of internal/replicate; a
// second durserve started with -follow pointed at it mirrors those
// bytes, applies complete records into warm engines as they arrive, and
// answers /readyz with "following" until it is promoted — by POST
// /promote, or automatically when the primary's lease (a successful
// manifest fetch within -lease-ttl) expires. Promotion reconciles shard
// tick divergence exactly like crash recovery does, attaches journals
// over the mirrored stores and seals them with a checkpoint; from that
// point the promoted follower serves bit-for-bit the answers the dead
// primary would have.

// ackTable is the primary-side record of follower progress: the highest
// applied LSN each follower acknowledged per store. SIGTERM waits for
// the acks to cover the final checkpoint's LSNs before the process lets
// go, so a clean handover never strands unshipped records.
type ackTable struct {
	mu      sync.Mutex
	applied map[string]int64
	seen    bool
	metrics *telemetry.ReplicaMetrics
}

func newAckTable(m *telemetry.ReplicaMetrics) *ackTable {
	return &ackTable{applied: make(map[string]int64), metrics: m}
}

// record merges one follower ack round (monotonic per store).
func (a *ackTable) record(applied map[string]int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen = true
	a.metrics.IncAckRound()
	//durlint:ignore maporder merged into a keyed table, order-free
	for store, lsn := range applied {
		if lsn > a.applied[store] {
			a.applied[store] = lsn
		}
	}
}

// ackedLSN reports the highest acknowledged LSN for one store.
func (a *ackTable) ackedLSN(store string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied[store]
}

// everAcked reports whether any follower has ever acknowledged.
func (a *ackTable) everAcked() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seen
}

// covered reports whether acks have reached every store's final LSN.
func (a *ackTable) covered(final map[string]int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	//durlint:ignore maporder pure conjunction over the map
	for store, lsn := range final {
		if a.applied[store] < lsn {
			return false
		}
	}
	return true
}

// waitForAcks blocks until the table covers the final LSNs or the
// timeout elapses, reporting which. Only meaningful when a follower has
// ever acked — a primary with no follower exits immediately.
func waitForAcks(at *ackTable, final map[string]int64, timeout time.Duration) bool {
	if !at.everAcked() {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		if at.covered(final) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// replicaSet is the mux-facing replication surface: the primary's
// /replicate handler (absent on followers and on in-memory daemons) and
// the follower's promote trigger (absent everywhere else). Fields are
// installed after the listener is already serving — a follower becomes
// a replication source only once promoted — so access is mutex-guarded.
type replicaSet struct {
	mu      sync.Mutex
	handler http.Handler              // primary: /replicate/manifest|file|ack
	promote func(reason string) error // follower: POST /promote
}

// enablePrimary mounts the serving side of replication over the
// daemon's open stores.
func (r *replicaSet) enablePrimary(hs *hubStores, at *ackTable) {
	src := replicate.StoreSource{Stores: hs.byName()}
	h := replicate.NewHandler(src, at.record)
	r.mu.Lock()
	r.handler = h
	r.mu.Unlock()
}

// setPromote installs the follower's promote trigger.
func (r *replicaSet) setPromote(fn func(reason string) error) {
	r.mu.Lock()
	r.promote = fn
	r.mu.Unlock()
}

// serveReplicate proxies /replicate/* to the primary handler.
func (r *replicaSet) serveReplicate(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	h := r.handler
	r.mu.Unlock()
	if h == nil {
		httpError(w, http.StatusServiceUnavailable, errors.New("replication is not enabled (start with -data-dir, or promote this follower first)"))
		return
	}
	h.ServeHTTP(w, req)
}

// handlePromote answers POST /promote: on a follower it requests the
// (asynchronous, single-shot) promotion and answers 202 — /readyz flips
// to 200 when the takeover completes; anywhere else it answers 409.
func (r *replicaSet) handlePromote(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	fn := r.promote
	r.mu.Unlock()
	if fn == nil {
		httpError(w, http.StatusConflict, errNotFollower)
		return
	}
	if err := fn("requested via POST /promote"); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": "promoting"})
}

// followerHooks wires mirrored stores into the hub: the hub lineage
// restores and applies hub events (handle binds deferred until
// promotion), each shard lineage restores and applies engine events on
// its own warm shard engine. Every applied record's wall time is
// observed into applied.
func followerHooks(h *streamHub, applied *telemetry.Histogram) func(store string) (replicate.StoreHooks, bool) {
	lineage := lineageHooks(h)
	return func(store string) (replicate.StoreHooks, bool) {
		hooks, ok := lineage(store)
		if ok {
			apply := hooks.Apply
			hooks.Apply = func(lsn int64, ev any) error {
				began := telemetry.Now()
				err := apply(lsn, ev)
				applied.ObserveDuration(telemetry.Since(began))
				return err
			}
		}
		return hooks, ok
	}
}

// lineageHooks restores and applies one mirrored store's lineage.
func lineageHooks(h *streamHub) func(store string) (replicate.StoreHooks, bool) {
	ctx := context.Background()
	return func(store string) (replicate.StoreHooks, bool) {
		if store == hubStoreName {
			return replicate.StoreHooks{
				Restore: func(snapPath string, found bool) error {
					if !found {
						return nil
					}
					var snap hubSnapshot
					ok, err := persist.ReadSnapshotFile(nil, snapPath, &snap)
					if err != nil {
						return err
					}
					if !ok {
						return fmt.Errorf("chosen snapshot %s unreadable", snapPath)
					}
					return h.restore(&snap)
				},
				Apply: func(lsn int64, ev any) error {
					return h.apply(ctx, lsn, ev)
				},
			}, true
		}
		var idx int
		if _, err := fmt.Sscanf(store, "shard-%04d", &idx); err != nil || idx < 0 || idx >= h.engine.Shards() {
			return replicate.StoreHooks{}, false
		}
		eng := h.engine.Shard(idx)
		return replicate.StoreHooks{
			Restore: func(snapPath string, found bool) error {
				if !found {
					return nil // EvRegistered replay rebuilds the stream
				}
				var snap stream.EngineSnapshot
				ok, err := persist.ReadSnapshotFile(nil, snapPath, &snap)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("chosen snapshot %s unreadable", snapPath)
				}
				return eng.Restore(snap, h.resolver)
			},
			Apply: func(lsn int64, ev any) error {
				jev, ok := ev.(stream.JournalEvent)
				if !ok {
					return fmt.Errorf("record lsn %d is %T, not an engine event", lsn, ev)
				}
				return eng.Apply(ctx, lsn, jev, h.resolver)
			},
		}, true
	}
}

// followerRun owns a running follower: the replication loop, its
// cancellation, and the single-shot promotion that turns the warm
// standby into the serving primary.
type followerRun struct {
	hub      *streamHub
	follower *replicate.Follower
	dataDir  string
	opts     persist.Options

	cancel  context.CancelFunc
	done    chan struct{} // closes when Run returns
	runErr  error
	promo   sync.Once
	promErr error
}

// discoverShardCount asks the primary's replication manifest how many
// shard lineages it ships, retrying until the primary answers or wait
// elapses. A follower adopts the primary's layout rather than trusting
// a local -shards flag: a mirror tracking fewer lineages than the
// primary ships would drain every lag gauge to zero while silently
// missing subscriptions, and then be refused at promotion by the hub
// snapshot's shard-count check. Discovering the count up front turns
// that late, confusing failure into a correct follower.
func discoverShardCount(source replicate.Source, wait time.Duration) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	var lastErr error
	logged := false
	for {
		man, err := source.Manifest(ctx)
		if err == nil {
			hub := false
			n := 0
			for _, sm := range man.Stores {
				switch {
				case sm.Name == hubStoreName:
					hub = true
				case strings.HasPrefix(sm.Name, "shard-"):
					n++
				}
			}
			if !hub || n == 0 {
				return 0, fmt.Errorf("primary manifest lists no hub+shard layout (%d stores)", len(man.Stores))
			}
			return n, nil
		}
		lastErr = err
		if !logged {
			log.Printf("durserve: primary not answering manifest requests yet (%v); retrying", err)
			logged = true
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("primary never answered a manifest request: %w", lastErr)
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// startFollower builds and launches the replication loop. onExpire
// fires (once) when the primary's lease lapses; the caller decides
// whether that triggers promotion.
func startFollower(h *streamHub, source replicate.Source, dataDir string, opts persist.Options, poll, lease time.Duration, applied *telemetry.Histogram, onExpire func()) *followerRun {
	fr := &followerRun{hub: h, dataDir: dataDir, opts: opts, done: make(chan struct{})}
	fr.follower = replicate.NewFollower(replicate.Config{
		Source:         source,
		Dir:            dataDir,
		Hooks:          followerHooks(h, applied),
		Interval:       poll,
		Lease:          lease,
		OnLeaseExpired: onExpire,
	})
	ctx, cancel := context.WithCancel(context.Background())
	fr.cancel = cancel
	go func() {
		defer close(fr.done)
		fr.runErr = fr.follower.Run(ctx)
	}()
	return fr
}

// stop halts the replication loop and waits for it to settle.
func (fr *followerRun) stop() {
	fr.cancel()
	<-fr.done
	fr.follower.Close()
}

// promote turns the warm standby into the serving primary, once. The
// replication loop is stopped, lineage divergence is reconciled exactly
// like crash recovery (SyncNextSub, alignStreams, resolveBinds, orphan
// reap), and the mirrored stores — valid persist data directories by
// construction — are opened, repaired of any torn tails the dead
// primary shipped, attached as journals and sealed with a checkpoint.
// It returns the attached store set so the caller can serve /replicate
// onward and gate its own shutdown.
func (fr *followerRun) promote() (*hubStores, error) {
	fr.promo.Do(func() { fr.promErr = fr.promoteOnce() })
	if fr.promErr != nil {
		return nil, fr.promErr
	}
	fr.hub.mu.Lock()
	hs := fr.hub.stores
	fr.hub.mu.Unlock()
	return hs, nil
}

func (fr *followerRun) promoteOnce() error {
	fr.stop()
	ctx := context.Background()
	h := fr.hub
	h.engine.SyncNextSub()
	if err := h.alignStreams(ctx); err != nil {
		return fmt.Errorf("promote: aligning lineages: %w", err)
	}
	h.resolveBinds()
	h.reapOrphans()
	// The engines are already warm — Recover here only repairs torn
	// tails and positions each store's next LSN; the replayed events are
	// discarded, not re-applied.
	hs, err := openHubStores(fr.dataDir, fr.opts, h.engine.Shards())
	if err != nil {
		return fmt.Errorf("promote: opening mirror: %w", err)
	}
	for i, st := range hs.shards {
		if _, _, err := st.Recover(&stream.EngineSnapshot{},
			func(bool) error { return nil },
			func(int64, any) error { return nil }); err != nil {
			hs.Close()
			return fmt.Errorf("promote: positioning %s: %w", shardStoreName(i), err)
		}
	}
	if _, _, err := hs.hub.Recover(&hubSnapshot{},
		func(bool) error { return nil },
		func(int64, any) error { return nil }); err != nil {
		hs.Close()
		return fmt.Errorf("promote: positioning %s: %w", hubStoreName, err)
	}
	h.mu.Lock()
	h.stores = hs
	h.mu.Unlock()
	for i, st := range hs.shards {
		h.engine.Shard(i).SetJournal(persist.EngineJournal{Store: st})
	}
	if err := h.checkpoint(); err != nil {
		return fmt.Errorf("promote: sealing checkpoint: %w", err)
	}
	return nil
}

// bindFollowerMetrics surfaces the follower's per-store replication lag
// on /metrics: bytes and records behind the primary's manifest, and
// whether the lineage has restored into the warm engine.
func (t *telemetrySet) bindFollowerMetrics(f *replicate.Follower, names []string) {
	t.lagsFn = f.Lags
	for _, name := range names {
		name := name
		l := telemetry.Label{Name: "store", Value: name}
		t.registry.GaugeFunc("durserve_follower_lag_bytes",
			"Shipped-byte lag behind the primary's manifest, per replicated store.",
			func() float64 { return float64(f.Lags()[name].Bytes) }, l)
		t.registry.GaugeFunc("durserve_follower_lag_records",
			"Applied-record lag behind the primary's next LSN, per replicated store (0 when the primary's LSN is unknown).",
			func() float64 { return float64(f.Lags()[name].Records) }, l)
		t.registry.GaugeFunc("durserve_follower_restored",
			"1 once the store's lineage has restored into the warm engine.",
			func() float64 {
				if f.Lags()[name].Restored {
					return 1
				}
				return 0
			}, l)
	}
}

// bindAckMetrics surfaces the primary-side follower-ack table.
func (t *telemetrySet) bindAckMetrics(at *ackTable, names []string) {
	for _, name := range names {
		name := name
		t.registry.GaugeFunc("durserve_follower_acked_lsn",
			"Highest applied LSN a follower acknowledged, per replicated store.",
			func() float64 { return float64(at.ackedLSN(name)) },
			telemetry.Label{Name: "store", Value: name})
	}
}

// finalShutdown writes the final checkpoint across every lineage and,
// when a follower has been acking, waits for it to confirm the final
// LSNs so the handover strands nothing. Returns an error only for the
// checkpoint; an ack timeout is logged, not fatal — the follower can
// still recover from the shipped bytes.
func finalShutdown(h *streamHub, at *ackTable, ackWait time.Duration) error {
	if err := h.checkpoint(); err != nil {
		return err
	}
	h.mu.Lock()
	hs := h.stores
	h.mu.Unlock()
	if hs == nil || at == nil {
		return nil
	}
	final := hs.lastLSNs()
	if !waitForAcks(at, final, ackWait) {
		log.Printf("durserve: follower did not acknowledge final LSNs within %s (have %s)", ackWait, ackSummary(at, final))
	}
	return nil
}

// ackSummary renders the ack shortfall for the shutdown log line.
func ackSummary(at *ackTable, final map[string]int64) string {
	names := make([]string, 0, len(final))
	//durlint:ignore maporder sorted immediately below
	for name := range final {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, name+"="+strconv.FormatInt(at.ackedLSN(name), 10)+"/"+strconv.FormatInt(final[name], 10))
	}
	return strings.Join(parts, " ")
}

// errNotFollower answers POST /promote on a daemon that is not
// following anyone.
var errNotFollower = errors.New("this daemon is not a follower")
