package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"durability/internal/persist"
	"durability/internal/stochastic"
	"durability/internal/stream"
	"durability/internal/telemetry"
)

// Durable serving state for the HTTP daemon: one lineage per engine
// shard. Each shard journals its own mutations (registrations,
// subscriptions and publish ticks with their refresh outcomes, closes —
// see internal/stream) to its own store under shard-NNNN/, so shards
// checkpoint, replay and replicate independently. Those logs are the
// daemon's whole journal. A handle is the engine's subscription ID
// ("sub-" + ID), warm plans ride in shard-0000's checkpoint, and the live
// feeds are never journaled: a feed is a pure function of (seed, stream,
// tick), so recovery recomputes it from genesis up to the highest tick
// any shard journaled (rebuildFeeds), catching lagging shards forward on
// the way — the engine's determinism makes that refresh bit-for-bit the
// one the dead process would have served.

// storeNames lists every replicated store of a shards-wide daemon; each
// is also its shard's -data-dir subdirectory.
func storeNames(shards int) []string {
	names := make([]string, shards)
	for i := range names {
		names[i] = persist.ShardStoreName(i)
	}
	return names
}

// checkDataDir refuses a data directory (or follower mirror) whose
// layout this build cannot serve from: the pre-sharding single-store
// layout, the hub/ lineage older builds kept beside the shards — their
// handles need not equal subscription IDs, so reusing the shards under
// ID handles could address the wrong subscription — a shard layout other
// than exactly shard-0000…shard-(n-1) (see persist.ShardCount), and a
// shard count other than the requested one. A missing directory is fine.
func checkDataDir(dir string, shards int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var subdirs []string
	for _, e := range entries {
		name := e.Name()
		_, _, storeFile := persist.ParseFileName(name)
		switch {
		case !e.IsDir() && storeFile:
			return fmt.Errorf("%s holds a pre-sharding single-store layout; move it aside (the partitioned layout keeps one lineage per shard under shard-NNNN/)", dir)
		case e.IsDir() && name == "hub":
			return fmt.Errorf("%s holds a hub/ lineage written by an older durserve, whose handles need not equal subscription IDs; drain it with that build or move the directory aside", dir)
		case e.IsDir():
			subdirs = append(subdirs, name)
		}
	}
	existing, err := persist.ShardCount(subdirs)
	if err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	if existing > 0 && existing != shards {
		return fmt.Errorf("%s was created with %d shards, refusing to open with %d — subscription placement is a function of the shard count", dir, existing, shards)
	}
	return nil
}

// openStores opens (creating if absent) the partitioned store layout
// under dir, one store per shard, after checkDataDir has vetted it.
func openStores(dir string, opts persist.Options, shards int) ([]*persist.Store, error) {
	if shards < 1 {
		shards = 1
	}
	if err := checkDataDir(dir, shards); err != nil {
		return nil, err
	}
	// Replicated lineages keep one extra snapshot generation: the
	// compaction floor then never outruns a follower that has shipped the
	// previous generation (see internal/replicate).
	if opts.Keep < 2 {
		opts.Keep = 2
	}
	stores := make([]*persist.Store, 0, shards)
	for i := 0; i < shards; i++ {
		st, err := persist.Open(filepath.Join(dir, persist.ShardStoreName(i)), opts)
		if err != nil {
			closeAll(stores)
			return nil, err
		}
		stores = append(stores, st)
	}
	return stores, nil
}

// closeAll releases store handles.
func closeAll(stores []*persist.Store) {
	for _, st := range stores {
		st.Close()
	}
}

// attached returns the hub's shard lineages, nil until stores attach.
func (h *streamHub) attached() []*persist.Lineage {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lineages
}

// walBytes reports the record bytes appended to shard i's store since
// it was opened; 0 while no stores are attached.
func (h *streamHub) walBytes(i int) int64 {
	if ls := h.attached(); ls != nil {
		return ls[i].Store.AppendedBytes()
	}
	return 0
}

// lastLSNs reports each shard store's last appended LSN, keyed by store
// name — what a follower must acknowledge before shutdown lets go.
func (h *streamHub) lastLSNs() map[string]int64 {
	ls := h.attached()
	out := make(map[string]int64, len(ls))
	for i, l := range ls {
		out[persist.ShardStoreName(i)] = l.Store.LastLSN()
	}
	return out
}

// closeStores waits out a running checkpoint pass, refuses later ones
// and releases the hub's store handles (tests simulate crashes with it;
// main lets process exit do it).
func (h *streamHub) closeStores() {
	h.stopPasses()
	for _, l := range h.attached() {
		l.Store.Close()
	}
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

// lineage is shard i's durable lineage over st (nil on a follower,
// whose lineages only restore and apply); only shard 0 carries the warm
// plan cache.
func (h *streamHub) lineage(i int, st *persist.Store) *persist.Lineage {
	l := &persist.Lineage{Store: st, Engine: h.engine.Shard(i), Resolve: h.resolver}
	if i == 0 {
		l.Plans = h.runner.Cache
	}
	return l
}

// rebuildFeeds recreates the live feed of every stream any shard has
// registered, after the shard lineages recovered (at boot) or drained
// (at promotion) and before journals attach. The shards journal each
// registration and each tick separately, so a crash can leave them on
// different prefixes; a tick exists once any shard has journaled it.
// Per stream: shards that lack the registration get it, the feed is
// recomputed from genesis up to the highest shard tick, the recomputed
// state must equal, bit for bit, the state a shard journaled at that
// tick (a -seed or model flag other than the directory was written
// under is refused here, by name), and lagging shards republish the
// states they miss.
func (h *streamHub) rebuildFeeds(ctx context.Context) error {
	shards := h.engine.Shards()
	heads := make([]map[string]stream.StreamState, shards)
	models := make(map[string]string)
	var names []string
	for i := range heads {
		heads[i] = make(map[string]stream.StreamState)
		for _, ss := range h.engine.Shard(i).Snapshot().Streams {
			heads[i][ss.Name] = ss
			if _, ok := models[ss.Name]; !ok {
				models[ss.Name] = ss.ModelID
				names = append(names, ss.Name)
			}
		}
	}
	sort.Strings(names)
	feeds := make(map[string]*feed, len(names))
	for _, name := range names {
		f, err := h.rebuildFeed(ctx, name, models[name], heads)
		if err != nil {
			return err
		}
		feeds[name] = f
	}
	h.mu.Lock()
	h.feeds = feeds
	h.mu.Unlock()
	return nil
}

func (h *streamHub) rebuildFeed(ctx context.Context, name, model string, heads []map[string]stream.StreamState) (*feed, error) {
	proc, _, err := h.resolver(name, model)
	if err != nil {
		return nil, fmt.Errorf("rebuilding stream %q: %w", name, err)
	}
	// top is the furthest journaled head (name came from some shard, so
	// there is one); low is the furthest-behind shard's tick.
	top, low := stream.StreamState{Tick: -1}, int64(-1)
	for i, byName := range heads {
		hd, ok := byName[name]
		if !ok {
			// A torn registration: finish it at the initial state.
			if err := h.engine.Shard(i).RegisterModel(name, model, proc, proc.Initial()); err != nil {
				return nil, fmt.Errorf("finishing the registration of stream %q on %s: %w", name, persist.ShardStoreName(i), err)
			}
		} else if hd.Tick > top.Tick {
			top = hd
		}
		if low < 0 || hd.Tick < low {
			low = hd.Tick
		}
	}
	src := feedSource(h.srv.Seed(), name)
	st := proc.Initial()
	states := make(map[int64]stochastic.State)
	for k := int64(1); k <= top.Tick; k++ {
		proc.Step(st, int(k), src)
		if k > low {
			states[k] = st.Clone()
		}
	}
	same, err := sameState(st, top.State)
	if err != nil {
		return nil, fmt.Errorf("comparing stream %q at tick %d: %w", name, top.Tick, err)
	}
	if !same {
		return nil, fmt.Errorf("stream %q: the feed recomputed under -seed %d differs from the state journaled at tick %d; restart with the -seed and model flags the data directory was written under", name, h.srv.Seed(), top.Tick)
	}
	err = h.engine.CatchUp(ctx, name, top.Tick, func(k int64) (stochastic.State, error) {
		s, ok := states[k]
		if !ok {
			return nil, fmt.Errorf("tick %d outside the recomputed window (%d, %d]", k, low, top.Tick)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return &feed{model: model, proc: proc, state: st, src: src, steps: int(top.Tick)}, nil
}

// sameState reports whether two states are equal bit for bit: gob
// carries every float as its IEEE bits.
func sameState(a, b stochastic.State) (bool, error) {
	var ea, eb bytes.Buffer
	if err := gob.NewEncoder(&ea).Encode(&a); err != nil {
		return false, err
	}
	if err := gob.NewEncoder(&eb).Encode(&b); err != nil {
		return false, err
	}
	return bytes.Equal(ea.Bytes(), eb.Bytes()), nil
}

// takeOver makes stores the hub's journal, at boot and at promotion.
// prepare brings each shard lineage to its store's end — at boot
// Lineage.Recover, which reports the events it replayed — then IDs
// resume past every shard's, the feeds are rebuilt, the lineages
// installed, the journals attached and a checkpoint seals the takeover,
// truncating the replayed tails. On failure the stores are closed.
func (h *streamHub) takeOver(stores []*persist.Store, prepare func(*persist.Lineage) (int, error)) (replayed int, err error) {
	defer func() {
		if err != nil {
			closeAll(stores)
		}
	}()
	ls := make([]*persist.Lineage, len(stores))
	for i, st := range stores {
		ls[i] = h.lineage(i, st)
		n, err := prepare(ls[i])
		replayed += n
		if err != nil {
			return replayed, fmt.Errorf("recovering %s: %w", persist.ShardStoreName(i), err)
		}
	}
	h.engine.SyncNextSub()
	if err := h.rebuildFeeds(context.Background()); err != nil {
		return replayed, err
	}
	h.mu.Lock()
	h.lineages = ls
	h.mu.Unlock()
	for i, l := range ls {
		h.engine.Shard(i).SetJournal(timedJournal{persist.EngineJournal{Store: l.Store}, h.timing.append[persist.ShardStoreName(i)]})
	}
	if err := h.checkpoint(); err != nil {
		return replayed, fmt.Errorf("sealing checkpoint: %w", err)
	}
	return replayed, nil
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

// checkpoint writes one snapshot generation per shard lineage.
func (h *streamHub) checkpoint() error {
	return h.checkpointEach(func(l *persist.Lineage) (bool, error) { return true, l.Checkpoint() })
}

// checkpointEach runs write over every shard lineage under ckptMu and
// times each checkpoint it attempted; one lineage's failure does not
// keep the others from theirs.
func (h *streamHub) checkpointEach(write func(*persist.Lineage) (bool, error)) error {
	ls := h.attached()
	h.ckptMu.Lock()
	defer h.ckptMu.Unlock()
	var errs []error
	for i, l := range ls {
		name := persist.ShardStoreName(i)
		began := telemetry.Now()
		tried, err := write(l)
		if tried {
			h.timing.checkpoint[name].ObserveDuration(telemetry.Since(began))
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("checkpointing %s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// startCheckpointPass checkpoints, off the request path, the shard
// lineages whose triggers have fired (Lineage.CheckpointIfDue). None
// starts before stores attach (a follower has none until promotion) or
// after stopPasses.
func (h *streamHub) startCheckpointPass() {
	h.mu.Lock()
	if h.lineages == nil || h.passesStopped {
		h.mu.Unlock()
		return
	}
	h.passes.Add(1)
	h.mu.Unlock()
	go func() {
		defer h.passes.Done()
		if err := h.checkpointEach((*persist.Lineage).CheckpointIfDue); err != nil {
			log.Printf("durserve: checkpoint: %v", err)
		}
	}()
}

// stopPasses refuses further checkpoint passes and waits for the running
// ones to finish. Idempotent.
func (h *streamHub) stopPasses() {
	h.mu.Lock()
	h.passesStopped = true
	h.mu.Unlock()
	h.passes.Wait()
}

// beginShutdown resolves every in-flight long poll: /updates waits are
// cancelled, which the handler answers with 204 No Content — the client's
// cue to re-arm against the server that comes back. Idempotent.
func (h *streamHub) beginShutdown() {
	h.downOnce.Do(func() { close(h.down) })
}
