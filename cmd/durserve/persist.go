package main

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"durability/internal/persist"
	"durability/internal/rng"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/stream"
	"durability/internal/telemetry"
)

// Durable serving state for the HTTP daemon, partitioned by lineage.
// Each engine shard journals its own mutations (registrations,
// subscriptions and publish ticks with their refresh outcomes, closes —
// see internal/stream) to its own store under shard-NNNN/, so shards
// checkpoint, replay and replicate independently. The hub's own store
// under hub/ carries the few things only the hub knows: the handle table
// binding HTTP subscription IDs to engine IDs, the live feeds whose
// dedicated random sources drive /tick, and the warm plan cache. A crash can land between any two of these
// logs; recovery reconciles by replaying every lineage and then
// catching lagging ones forward — feeds are deterministic functions of
// (seed, stream, step), so any missing tick's state can be recomputed
// and republished live, and the engine's determinism makes that refresh
// bit-for-bit the one the dead process would have served.

// hubFeedCreate records a feed's birth (its initial state and random
// source are derived deterministically from the stream name and server
// seed, so only the names need logging).
type hubFeedCreate struct {
	Stream string
	Model  string
}

// hubFeedStep records one advance of a feed's own dynamics. Replay
// re-steps the feed, which both reproduces the published state and leaves
// the feed's random source at exactly the pre-crash position — the next
// live tick continues the sequence as if nothing happened.
type hubFeedStep struct {
	Stream string
}

// hubBind records the HTTP handle assigned to an engine subscription.
type hubBind struct {
	Handle string
	SubID  uint64
}

// hubUnbind records a handle's removal (the engine's EvClosed rides in
// the owning shard's log).
type hubUnbind struct {
	Handle string
}

func init() {
	gob.Register(hubFeedCreate{})
	gob.Register(hubFeedStep{})
	gob.Register(hubBind{})
	gob.Register(hubUnbind{})
}

// feedSnapshot is one live feed's persisted state: the model identity
// plus the simulation state, step counter and the random source
// mid-sequence.
type feedSnapshot struct {
	Stream string
	Model  string
	State  stochastic.State
	Src    *rng.Source
	Steps  int
	LSN    int64
}

// handleBinding is one HTTP-handle-to-subscription row. Persisted as a
// slice sorted by handle, not a map: gob encodes maps in iteration
// order, which would make two checkpoints of the same state differ.
type handleBinding struct {
	Handle string
	SubID  uint64
}

// tickErrCount is one stream's failed-sweep counter, sorted by stream
// for the same reason.
type tickErrCount struct {
	Stream string
	Errors int64
}

// hubSnapshot is the hub store's checkpoint payload: everything the
// daemon persists except the engine shards, which checkpoint their own
// stream.EngineSnapshot into their own stores. Every component is
// persisted in a canonical order (sorted handles, feeds and error
// counters), so checkpoints of identical serving states are
// byte-identical. Shards pins the shard count the directory was created
// with: placement is a pure function of (stream, id, shard count), so
// reopening under a different count would silently re-home
// subscriptions — recovery refuses instead.
//
//durlint:gobroot
type hubSnapshot struct {
	Shards   int
	Plans    []serve.WarmPlan
	NextID   int64
	Handles  []handleBinding
	HubLSN   int64
	Feeds    []feedSnapshot
	TickErrs []tickErrCount
}

// hubStores is the daemon's store set: the hub's own lineage plus one
// per engine shard, all subdirectories of one -data-dir.
type hubStores struct {
	hub    *persist.Store
	shards []*persist.Store
}

// hubStoreName and shardStoreName are the -data-dir subdirectory (and
// replication store) names.
const hubStoreName = "hub"

func shardStoreName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// storeNames lists every replicated store of a shards-wide daemon, hub
// first.
func storeNames(shards int) []string {
	names := []string{hubStoreName}
	for i := 0; i < shards; i++ {
		names = append(names, shardStoreName(i))
	}
	return names
}

// openHubStores opens (creating if absent) the partitioned store layout
// under dir. A directory holding the old single-store layout (snap-/wal-
// files at the root) is refused rather than silently shadowed, as is a
// directory whose shard count differs from the requested one.
func openHubStores(dir string, opts persist.Options, shards int) (*hubStores, error) {
	if shards < 1 {
		shards = 1
	}
	if entries, err := os.ReadDir(dir); err == nil {
		existing := 0
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() && (strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-")) {
				return nil, fmt.Errorf("%s holds a pre-sharding single-store layout; move it aside (the partitioned layout keeps per-shard lineages under %s/ and shard-NNNN/)", dir, hubStoreName)
			}
			if e.IsDir() && strings.HasPrefix(name, "shard-") {
				existing++
			}
		}
		if existing > 0 && existing != shards {
			return nil, fmt.Errorf("%s was created with %d shards, refusing to open with %d — subscription placement is a function of the shard count", dir, existing, shards)
		}
	}
	// Replicated lineages keep one extra snapshot generation: the
	// compaction floor then never outruns a follower that has shipped the
	// previous generation (see internal/replicate).
	if opts.Keep < 2 {
		opts.Keep = 2
	}
	hs := &hubStores{}
	hub, err := persist.Open(filepath.Join(dir, hubStoreName), opts)
	if err != nil {
		return nil, err
	}
	hs.hub = hub
	for i := 0; i < shards; i++ {
		st, err := persist.Open(filepath.Join(dir, shardStoreName(i)), opts)
		if err != nil {
			hs.Close()
			return nil, err
		}
		hs.shards = append(hs.shards, st)
	}
	return hs, nil
}

// byName maps the store set by replication store name.
func (hs *hubStores) byName() map[string]*persist.Store {
	m := map[string]*persist.Store{hubStoreName: hs.hub}
	for i, st := range hs.shards {
		m[shardStoreName(i)] = st
	}
	return m
}

// walBytes reports the record bytes appended to the named store since
// it was opened; 0 while no stores are attached.
func (h *streamHub) walBytes(name string) int64 {
	h.mu.Lock()
	hs := h.stores
	h.mu.Unlock()
	if hs == nil {
		return 0
	}
	if st := hs.byName()[name]; st != nil {
		return st.AppendedBytes()
	}
	return 0
}

// lastLSNs reports each store's last appended LSN, keyed by store name —
// what a follower must acknowledge before shutdown lets go.
func (hs *hubStores) lastLSNs() map[string]int64 {
	out := map[string]int64{hubStoreName: hs.hub.LastLSN()}
	for i, st := range hs.shards {
		out[shardStoreName(i)] = st.LastLSN()
	}
	return out
}

// Close releases every store handle.
func (hs *hubStores) Close() {
	if hs == nil {
		return
	}
	if hs.hub != nil {
		hs.hub.Close()
	}
	for _, st := range hs.shards {
		if st != nil {
			st.Close()
		}
	}
}

// closeStores releases the hub's store handles (tests simulate crashes
// with it; main lets process exit do it).
func (h *streamHub) closeStores() {
	h.mu.Lock()
	hs := h.stores
	h.mu.Unlock()
	hs.Close()
}

// resolver rebuilds stream dynamics and observers from the model
// registry, the same factories live requests use.
func (h *streamHub) resolver(streamName, modelID string) (stochastic.Process, map[string]stochastic.Observer, error) {
	factory, ok := h.registry[modelID]
	if !ok {
		return nil, nil, fmt.Errorf("snapshot names model %q, which this server was not started with", modelID)
	}
	return factory()
}

// snapshot assembles the hub store's checkpoint payload. Each component
// carries the log sequence number of its last applied mutation, which is
// what reconciles a snapshot taken under live traffic with the WAL
// around it. The hub snapshot is always captured after the shard
// snapshots (see checkpoint): a handle captured here either finds its
// subscription in a shard snapshot or in that shard's WAL right after
// it, and a bind landing between the captures is replayed from the hub
// WAL — resolveBinds settles both cases after every lineage has
// replayed.
func (h *streamHub) snapshot() (*hubSnapshot, error) {
	snap := &hubSnapshot{Shards: h.engine.Shards()}
	h.mu.Lock()
	snap.NextID = h.nextID
	snap.HubLSN = h.lsn
	snap.Handles = make([]handleBinding, 0, len(h.subs))
	for handle, sub := range h.subs {
		snap.Handles = append(snap.Handles, handleBinding{Handle: handle, SubID: sub.ID()})
	}
	sort.Slice(snap.Handles, func(i, j int) bool { return snap.Handles[i].Handle < snap.Handles[j].Handle })
	snap.TickErrs = make([]tickErrCount, 0, len(h.tickErrs))
	for name, n := range h.tickErrs {
		snap.TickErrs = append(snap.TickErrs, tickErrCount{Stream: name, Errors: n})
	}
	sort.Slice(snap.TickErrs, func(i, j int) bool { return snap.TickErrs[i].Stream < snap.TickErrs[j].Stream })
	// Feed order must not leak map order into the snapshot: two
	// checkpoints of the same server state must be byte-identical.
	names := make([]string, 0, len(h.feeds))
	for name := range h.feeds {
		names = append(names, name)
	}
	sort.Strings(names)
	feeds := make([]*feed, 0, len(names))
	for _, name := range names {
		feeds = append(feeds, h.feeds[name])
	}
	h.mu.Unlock()
	snap.Plans = h.planCache().Export()
	for i, f := range feeds {
		f.mu.Lock()
		src := *f.src
		snap.Feeds = append(snap.Feeds, feedSnapshot{
			Stream: names[i],
			Model:  f.model,
			State:  f.state.Clone(),
			Src:    &src,
			Steps:  f.steps,
			LSN:    f.lsn,
		})
		f.mu.Unlock()
	}
	return snap, nil
}

// planCache returns the shared plan cache the hub warms and exports.
func (h *streamHub) planCache() *serve.PlanCache {
	return h.runner.Cache
}

// restore rebuilds the hub from its store's snapshot: warm plans, feeds,
// handle table (deferred — the engine shards restore from their own
// stores, possibly after this runs, so handles resolve against live
// subscriptions only once every lineage has settled; see resolveBinds).
func (h *streamHub) restore(snap *hubSnapshot) error {
	if snap.Shards != 0 && snap.Shards != h.engine.Shards() {
		return fmt.Errorf("snapshot was taken with %d shards, this server runs %d — subscription placement is a function of the shard count", snap.Shards, h.engine.Shards())
	}
	for _, wp := range snap.Plans {
		h.planCache().Warm(wp.Key, wp.Plan)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID = snap.NextID
	h.lsn = snap.HubLSN
	for _, te := range snap.TickErrs {
		h.tickErrs[te.Stream] = te.Errors
	}
	for _, fs := range snap.Feeds {
		proc, observers, err := h.resolver(fs.Stream, fs.Model)
		if err != nil {
			return fmt.Errorf("restoring feed %q: %w", fs.Stream, err)
		}
		src := *fs.Src
		h.feeds[fs.Stream] = &feed{
			model: fs.Model, proc: proc, observers: observers,
			state: fs.State.Clone(), src: &src, steps: fs.Steps, lsn: fs.LSN,
		}
	}
	for _, hb := range snap.Handles {
		h.binds[hb.Handle] = hb.SubID
	}
	return nil
}

// apply replays one hub-store WAL event the same way the live handlers
// mutate the hub, except that handle binds are deferred: during a
// follower's continuous apply the shard carrying the subscription may
// not have caught up yet, so binds resolve against the engine only at
// resolveBinds time. Components skip events their snapshot already
// covers (lsn at or below their restored sequence number).
func (h *streamHub) apply(ctx context.Context, lsn int64, ev any) error {
	switch ev := ev.(type) {
	case hubFeedCreate:
		h.mu.Lock()
		defer h.mu.Unlock()
		if f, ok := h.feeds[ev.Stream]; ok {
			if f.lsn < lsn {
				f.lsn = lsn
			}
			return nil
		}
		proc, observers, err := h.resolver(ev.Stream, ev.Model)
		if err != nil {
			return fmt.Errorf("replaying feed %q: %w", ev.Stream, err)
		}
		h.feeds[ev.Stream] = &feed{
			model: ev.Model, proc: proc, observers: observers,
			state: proc.Initial(), src: feedSource(h.seed, ev.Stream), lsn: lsn,
		}
		return nil

	case hubFeedStep:
		h.mu.Lock()
		f := h.feeds[ev.Stream]
		h.mu.Unlock()
		if f == nil {
			return fmt.Errorf("replaying step of unknown feed %q", ev.Stream)
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.lsn >= lsn {
			return nil
		}
		f.steps++
		f.proc.Step(f.state, f.steps, f.src)
		f.lsn = lsn
		return nil

	case hubBind:
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.lsn >= lsn {
			return nil
		}
		h.binds[ev.Handle] = ev.SubID
		if n := handleNumber(ev.Handle); n > h.nextID {
			h.nextID = n
		}
		h.lsn = lsn
		return nil

	case hubUnbind:
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.lsn >= lsn {
			return nil
		}
		delete(h.binds, ev.Handle)
		delete(h.subs, ev.Handle)
		h.lsn = lsn
		return nil

	default:
		return fmt.Errorf("unknown WAL event %T", ev)
	}
}

// resolveBinds settles the deferred handle table against the recovered
// engine. A bind whose subscription is gone is legitimately dropped: it
// was bound after one capture but closed before another, so no lineage
// carries the subscription — the later hubUnbind replay (if any) was a
// no-op, and the handle number stays consumed (no reuse).
func (h *streamHub) resolveBinds() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for handle, id := range h.binds {
		if sub, ok := h.engine.Subscription(id); ok {
			h.subs[handle] = sub
		}
	}
	h.binds = make(map[string]uint64)
}

// reapOrphans closes engine subscriptions no handle can ever address —
// a crash between a shard's EvAdded record and the hub's bind
// record recovers a live subscription that would otherwise pay refresh
// cost on every tick forever. The client never saw its handle (the
// crash beat the response), so closing it is the consistent outcome:
// the subscribe simply never happened. Runs before journals attach, so
// the closes are not journaled; the boot checkpoint captures the
// post-reap state.
func (h *streamHub) reapOrphans() {
	h.mu.Lock()
	bound := make(map[uint64]bool, len(h.subs))
	for _, sub := range h.subs {
		bound[sub.ID()] = true
	}
	h.mu.Unlock()
	for _, sub := range h.engine.Subscriptions() {
		if !bound[sub.ID()] {
			sub.Close()
		}
	}
}

// alignStreams reconciles per-lineage tick divergence after recovery or
// promotion. A tick writes the hub's feed-step record first, then each
// shard's tick record (EvTicked, the state plus its refresh outcomes); a
// crash can tear any suffix of that sequence, so the recovered lineages
// agree on a prefix and diverge by at most the ticks in flight. The
// furthest lineage defines the target; the feed's state trajectory is
// recomputed from genesis (it is a pure function of (seed, stream,
// step)), and lagging shards — whose logs never got those ticks'
// outcomes — republish exactly the missing states live, through the
// refresh the dead server ran; the feed itself fast-forwards to the
// target. Determinism makes the result bit-for-bit the state of an
// uninterrupted server at that tick.
func (h *streamHub) alignStreams(ctx context.Context) error {
	h.mu.Lock()
	names := make([]string, 0, len(h.feeds))
	for name := range h.feeds {
		names = append(names, name)
	}
	sort.Strings(names)
	feeds := make([]*feed, 0, len(names))
	for _, name := range names {
		feeds = append(feeds, h.feeds[name])
	}
	h.mu.Unlock()
	for i, name := range names {
		if err := h.alignStream(ctx, name, feeds[i]); err != nil {
			return err
		}
	}
	return nil
}

func (h *streamHub) alignStream(ctx context.Context, name string, f *feed) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	target := int64(f.steps)
	low := target
	ticks, registered := h.engine.ShardTicks(name)
	if registered {
		for _, t := range ticks {
			if t > target {
				target = t
			}
			if t < low {
				low = t
			}
		}
	}
	if target == low && target == int64(f.steps) {
		return nil // every lineage agrees
	}
	// Recompute the feed's trajectory from genesis, keeping the states
	// lagging lineages are missing.
	src := feedSource(h.seed, name)
	st := f.proc.Initial()
	states := make(map[int64]stochastic.State)
	for k := int64(1); k <= target; k++ {
		f.proc.Step(st, int(k), src)
		if k > low {
			states[k] = st.Clone()
		}
	}
	if registered {
		err := h.engine.CatchUp(ctx, name, target, func(k int64) (stochastic.State, error) {
			s, ok := states[k]
			if !ok {
				return nil, fmt.Errorf("tick %d outside the recomputed window (%d, %d]", k, low, target)
			}
			return s, nil
		})
		if err != nil {
			return err
		}
	}
	// Fast-forward the feed itself (a torn hub record can leave it behind
	// the shards). The recomputed walk equals the restored state at the
	// restored step count, so adopting it wholesale is a no-op when the
	// feed was already at target.
	f.state, f.src, f.steps = st, src, int(target)
	return nil
}

// attachStores recovers the hub from the partitioned store set (each
// shard's snapshot plus WAL, then the hub's), reconciles lineage
// divergence, attaches the journals so every subsequent mutation is
// logged, and writes a fresh checkpoint truncating the replayed tails.
// It reports how many events were replayed across all lineages.
func (h *streamHub) attachStores(hs *hubStores) (replayed int, err error) {
	ctx := context.Background()
	// Shards first: the hub's handle table resolves against the engine,
	// so every shard lineage must have settled before binds resolve.
	for i, st := range hs.shards {
		i := i
		var esnap stream.EngineSnapshot
		_, n, err := st.Recover(&esnap,
			func(found bool) error {
				if !found {
					return nil
				}
				return h.engine.Shard(i).Restore(esnap, h.resolver)
			},
			func(lsn int64, ev any) error {
				jev, ok := ev.(stream.JournalEvent)
				if !ok {
					return fmt.Errorf("shard %d log carries %T, not an engine event", i, ev)
				}
				return h.engine.Shard(i).Apply(ctx, lsn, jev, h.resolver)
			},
		)
		replayed += n
		if err != nil {
			return replayed, fmt.Errorf("recovering %s: %w", shardStoreName(i), err)
		}
	}
	var snap hubSnapshot
	_, n, err := hs.hub.Recover(&snap,
		func(found bool) error {
			if !found {
				return nil
			}
			return h.restore(&snap)
		},
		func(lsn int64, ev any) error {
			return h.apply(ctx, lsn, ev)
		},
	)
	replayed += n
	if err != nil {
		return replayed, fmt.Errorf("recovering %s: %w", hubStoreName, err)
	}
	h.engine.SyncNextSub()
	if err := h.alignStreams(ctx); err != nil {
		return replayed, err
	}
	h.resolveBinds()
	h.reapOrphans()
	h.mu.Lock()
	h.stores = hs
	h.mu.Unlock()
	h.attachJournals(hs)
	return replayed, h.checkpoint()
}

// journalTiming holds the per-store journal timings on /metrics: wall
// time per WAL append and per checkpoint, keyed by store name. They are
// durations only and never reach deterministic state.
type journalTiming struct {
	append, checkpoint map[string]*telemetry.Histogram
}

// timedJournal is a shard engine's journal, timing each record's append.
type timedJournal struct {
	persist.EngineJournal
	seconds *telemetry.Histogram
}

// Record implements stream.Journal.
func (j timedJournal) Record(ev stream.JournalEvent) (int64, error) {
	began := telemetry.Now()
	lsn, err := j.EngineJournal.Record(ev)
	j.seconds.ObserveDuration(telemetry.Since(began))
	return lsn, err
}

// attachJournals makes each shard engine journal to its own store.
func (h *streamHub) attachJournals(hs *hubStores) {
	for i, st := range hs.shards {
		h.engine.Shard(i).SetJournal(timedJournal{persist.EngineJournal{Store: st}, h.timing.append[shardStoreName(i)]})
	}
}

// timedCheckpoint checkpoints one store, timing it.
func (h *streamHub) timedCheckpoint(name string, st *persist.Store, assemble func() (any, error)) error {
	began := telemetry.Now()
	err := st.Checkpoint(assemble)
	h.timing.checkpoint[name].ObserveDuration(telemetry.Since(began))
	return err
}

// checkpoint writes one snapshot generation per lineage — every shard,
// then the hub; concurrent callers serialize. Shard snapshots go first
// so a handle the hub snapshot carries always finds its subscription in
// the shard snapshot or the shard WAL right after it.
func (h *streamHub) checkpoint() error {
	h.mu.Lock()
	hs := h.stores
	h.mu.Unlock()
	if hs == nil {
		return nil
	}
	h.ckptMu.Lock()
	defer h.ckptMu.Unlock()
	for i, st := range hs.shards {
		i := i
		if err := st.Err(); err != nil {
			return err
		}
		if err := h.timedCheckpoint(shardStoreName(i), st, func() (any, error) { return h.engine.Shard(i).Snapshot(), nil }); err != nil {
			return fmt.Errorf("checkpointing %s: %w", shardStoreName(i), err)
		}
	}
	if err := hs.hub.Err(); err != nil {
		return err
	}
	if err := h.timedCheckpoint(hubStoreName, hs.hub, func() (any, error) { return h.snapshot() }); err != nil {
		return fmt.Errorf("checkpointing %s: %w", hubStoreName, err)
	}
	return nil
}

// maybeCheckpoint runs a full checkpoint when any lineage's size or age
// trigger has fired; the main loop polls it.
func (h *streamHub) maybeCheckpoint() error {
	h.mu.Lock()
	hs := h.stores
	h.mu.Unlock()
	if hs == nil {
		return nil
	}
	need := hs.hub.NeedCheckpoint()
	for _, st := range hs.shards {
		need = need || st.NeedCheckpoint()
	}
	if !need {
		return nil
	}
	return h.checkpoint()
}

// append journals one hub-level event to the hub store; with no store
// attached it reports lsn 0, which every consumer treats as "not
// journaled".
func (h *streamHub) append(ev any) (int64, error) {
	if h.stores == nil {
		return 0, nil
	}
	began := telemetry.Now()
	lsn, err := h.stores.hub.Append(ev)
	h.timing.append[hubStoreName].ObserveDuration(telemetry.Since(began))
	return lsn, err
}

// handleNumber extracts N from a "sub-N" handle (0 when malformed).
func handleNumber(handle string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(handle, "sub-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// beginShutdown resolves every in-flight long poll: /updates waits are
// cancelled, which the handler answers with 204 No Content — the client's
// cue to re-arm against the server that comes back. Idempotent.
func (h *streamHub) beginShutdown() {
	h.downOnce.Do(func() { close(h.down) })
}
