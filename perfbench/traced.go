package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/persist"
	"durability/internal/planstats"
	"durability/internal/replicate"
	"durability/internal/rng"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/stream"
	"durability/internal/telemetry"
)

// The traced run composes durserve's layers in-process, as durserve
// composes them, and times every call the benchmark makes into them:
//
//	op.*               the harness call, from send to answer (not a layer)
//	durserve.encode    JSON encoding of the response
//	durserve.feed_step stepping the live feed (the hub's work per tick)
//	serve.do           Server.Do / serve.do_batch: Server.DoBatch
//	stream.update      ShardedEngine.Update; stream.subscribe, stream.close
//	core.run_roots     Executor.RunRoots, through a timing wrapper around
//	                   exec.Local — the program Exec defaults to
//	persist.append     Journal.Record, through a timing wrapper around
//	                   persist.EngineJournal; persist.checkpoint: one
//	                   checkpoint of every shard store
//	replicate.apply    the follower's StoreHooks; replicate.restore
//
// Inside Server.Do the layers call each other directly, so the plan
// search (opt), the estimator loop (exec) and their sums come from the
// server's own Tracer stages instead of spans. durserve's hub
// bookkeeping between those calls is left in the op's residual.

// timedExec is an Executor that records a span per RunRoots call.
type timedExec struct {
	inner exec.Executor
	log   *spanLog

	calls, roots, steps atomic.Int64
}

func (t *timedExec) Name() string { return t.inner.Name() }

func (t *timedExec) RunRoots(ctx context.Context, task exec.Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error) {
	parent, op := spanFrom(ctx)
	start := t.log.now()
	r, err := t.inner.RunRoots(ctx, task, lo, hi, rootsPerGroup)
	t.log.add("core.run_roots", parent, op, start, t.log.now())
	t.calls.Add(1)
	t.roots.Add(r.Roots)
	t.steps.Add(r.Steps)
	return r, err
}

// timedJournal is a stream.Journal that records a span per append,
// parented to the foreground span open when it fires.
type timedJournal struct {
	j   persist.EngineJournal
	log *spanLog
}

func (t timedJournal) Record(ev stream.JournalEvent) (int64, error) {
	start := t.log.now()
	lsn, err := t.j.Record(ev)
	parent, op := int64(0), -1
	if fg := t.log.fgSpan.Load(); fg != nil {
		parent, op = fg.id, fg.op
	}
	t.log.add("persist.append", parent, op, start, t.log.now())
	return lsn, err
}

// countingFS counts the bytes the stores write to WAL segments and to
// snapshots.
type countingFS struct {
	persist.FS
	wal, snap atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	switch base := filepath.Base(name); {
	case strings.HasPrefix(base, "wal-"):
		return countingFile{f, &c.wal}, nil
	case strings.HasPrefix(base, "snap-"):
		return countingFile{f, &c.snap}, nil
	}
	return f, nil
}

type countingFile struct {
	persist.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// feed is the hub's live state for the one stream.
type feed struct {
	proc      stochastic.Process
	observers map[string]stochastic.Observer
	state     stochastic.State
	src       *rng.Source
	steps     int
}

// system is one workload's layers, composed in-process.
type system struct {
	w       workload
	log     *spanLog
	reg     serve.Registry
	tracer  *telemetry.Tracer
	metrics *telemetry.EngineMetrics
	srv     *serve.Server
	ex      *timedExec
	engine  *stream.ShardedEngine
	feed    *feed

	mu   sync.Mutex
	subs map[int]*stream.Subscription

	// Tick accounting over the window, kept by the one goroutine that ticks.
	ticks, survived, pooled, fresh, replans int64
	planInUpdates                           float64 // plan-resolution seconds inside stream.update spans
	lagMax                                  int64

	// Durable serving state.
	dir      string
	fs       *countingFS
	stores   []*persist.Store
	ckptMu   sync.Mutex
	bgErr    atomic.Pointer[error]
	stopBG   context.CancelFunc
	bg       sync.WaitGroup
	follower *replicate.Follower
	standby  *stream.ShardedEngine
}

func newSystem(w workload, dir string, log *spanLog) (*system, error) {
	reg := buildRegistry(w.Server.params())
	tracer := telemetry.NewTracer(nil)
	em := telemetry.NewEngineMetrics()
	em.Trace = tracer
	srv := serve.NewServer(reg, serve.Config{
		QueueDepth:      64,
		SimWorkers:      1,
		MaxHorizon:      1_000_000,
		DefaultRelErr:   0.10,
		Seed:            w.Server.Seed,
		BetaBucketWidth: serve.DefaultBetaBucketWidth,
		PlanCacheCap:    serve.DefaultPlanCacheCap,
		CoalesceWindow:  w.Server.Coalesce,
		Tracer:          tracer,
		Ledger:          planstats.NewLedger(),
	})
	s := &system{
		w: w, log: log, reg: reg, tracer: tracer, metrics: em, srv: srv,
		ex:   &timedExec{inner: exec.Local{}, log: log},
		subs: make(map[int]*stream.Subscription),
		dir:  dir,
	}
	switch w.Kind {
	case kindBatch:
		// Batches run on exec.Local when the runner has no executor, so
		// the timed wrapper runs the same program. Queries keep the nil
		// executor: it selects the inline core.GMLSS.Run loop instead.
		srv.Runner().Exec = s.ex
	case kindTicks:
		shards := max(w.Server.Shards, 1)
		s.engine = stream.NewSharded(stream.Config{Runner: srv.Runner(), Exec: s.ex, Metrics: em}, shards, 0)
		if w.Server.Durable {
			if err := s.openStores(shards); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *system) resolver(_, modelID string) (stochastic.Process, map[string]stochastic.Observer, error) {
	f, ok := s.reg[modelID]
	if !ok {
		return nil, nil, fmt.Errorf("unknown model %q", modelID)
	}
	return f()
}

func storeName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// openStores attaches a checkpoint+WAL store to every shard, writes the
// boot checkpoint, and starts durserve's checkpoint poller and a follower
// applying every record into warm standby engines.
func (s *system) openStores(shards int) error {
	s.fs = &countingFS{FS: persist.OSFS}
	opts := persist.Options{MaxWALBytes: s.w.Server.CheckpointBytes, Keep: 2, FS: s.fs}
	byName := make(map[string]*persist.Store)
	for i := 0; i < shards; i++ {
		st, err := persist.Open(filepath.Join(s.dir, "primary", storeName(i)), opts)
		if err != nil {
			return err
		}
		s.stores = append(s.stores, st)
		if _, _, err := st.Recover(&stream.EngineSnapshot{}, nil, nil); err != nil {
			return err
		}
		s.engine.Shard(i).SetJournal(timedJournal{persist.EngineJournal{Store: st}, s.log})
		byName[storeName(i)] = st
	}
	if err := s.checkpoint(); err != nil {
		return err
	}

	s.standby = stream.NewSharded(stream.Config{}, shards, 0)
	s.follower = replicate.NewFollower(replicate.Config{
		Source:   replicate.StoreSource{Stores: byName},
		Dir:      filepath.Join(s.dir, "mirror"),
		Hooks:    s.followerHooks,
		Interval: s.w.Server.FollowPoll,
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.stopBG = cancel
	s.bg.Add(2)
	go func() {
		defer s.bg.Done()
		if err := s.follower.Run(ctx); err != nil && ctx.Err() == nil {
			s.fail(fmt.Errorf("follower: %w", err))
		}
	}()
	go func() {
		defer s.bg.Done()
		s.pollCheckpoints(ctx)
	}()
	return nil
}

func (s *system) fail(err error) { s.bgErr.CompareAndSwap(nil, &err) }

// pollCheckpoints checkpoints every shard whenever any store's size or
// age trigger has fired, polled as durserve polls it.
func (s *system) pollCheckpoints(ctx context.Context) {
	for {
		sleepUntil(ctx, time.Now().Add(checkpointPoll))
		if ctx.Err() != nil {
			return
		}
		need := false
		for _, st := range s.stores {
			need = need || st.NeedCheckpoint()
		}
		if need {
			if err := s.checkpoint(); err != nil {
				s.fail(err)
			}
		}
	}
}

// checkpoint writes one snapshot generation per shard, as one span.
func (s *system) checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := s.log.now()
	defer func() { s.log.add("persist.checkpoint", 0, -1, start, s.log.now()) }()
	for i, st := range s.stores {
		eng := s.engine.Shard(i)
		if err := st.Checkpoint(func() (any, error) { return eng.Snapshot(), nil }); err != nil {
			return fmt.Errorf("checkpointing %s: %w", storeName(i), err)
		}
	}
	return nil
}

func (s *system) followerHooks(store string) (replicate.StoreHooks, bool) {
	var idx int
	if _, err := fmt.Sscanf(store, "shard-%04d", &idx); err != nil || idx < 0 || idx >= s.standby.Shards() {
		return replicate.StoreHooks{}, false
	}
	eng := s.standby.Shard(idx)
	return replicate.StoreHooks{
		Restore: func(path string, found bool) error {
			start := s.log.now()
			defer func() { s.log.add("replicate.restore", 0, -1, start, s.log.now()) }()
			if !found {
				return nil
			}
			var snap stream.EngineSnapshot
			ok, err := persist.ReadSnapshotFile(nil, path, &snap)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("snapshot %s unreadable", path)
			}
			return eng.Restore(snap, s.resolver)
		},
		Apply: func(lsn int64, ev any) error {
			start := s.log.now()
			defer func() { s.log.add("replicate.apply", 0, -1, start, s.log.now()) }()
			jev, ok := ev.(stream.JournalEvent)
			if !ok {
				return fmt.Errorf("record lsn %d is %T, not an engine event", lsn, ev)
			}
			return eng.Apply(context.Background(), lsn, jev, s.resolver)
		},
	}, true
}

// stopBackground halts the checkpoint poller and the follower.
func (s *system) stopBackground() {
	if s.stopBG != nil {
		s.stopBG()
		s.bg.Wait()
		s.stopBG = nil
		s.follower.Close()
	}
}

func (s *system) close() {
	s.stopBackground()
	s.srv.Close()
	for _, st := range s.stores {
		st.Close()
	}
	s.stores = nil
}

// err reports the first failure of the background work.
func (s *system) err() error {
	if p := s.bgErr.Load(); p != nil {
		return *p
	}
	return nil
}

// recover rebuilds the primary's engines from its stores the way a
// restarted durserve does — snapshot, then WAL tail — and reports how
// long it took and how many records it replayed. The plan cache comes
// back warm, as durserve restores it from its hub snapshot.
func (s *system) recover(ctx context.Context) (float64, int, error) {
	runner := &serve.Runner{Cache: serve.NewPlanCache(serve.DefaultBetaBucketWidth)}
	for _, wp := range s.srv.Runner().Cache.Export() {
		runner.Cache.Warm(wp.Key, wp.Plan)
	}
	began := time.Now()
	eng := stream.NewSharded(stream.Config{Runner: runner}, s.engine.Shards(), 0)
	replayed := 0
	for i := 0; i < eng.Shards(); i++ {
		st, err := persist.Open(filepath.Join(s.dir, "primary", storeName(i)), persist.Options{Keep: 2})
		if err != nil {
			return 0, 0, err
		}
		sh := eng.Shard(i)
		var snap stream.EngineSnapshot
		_, n, err := st.Recover(&snap,
			func(found bool) error {
				if !found {
					return nil
				}
				return sh.Restore(snap, s.resolver)
			},
			func(lsn int64, ev any) error {
				jev, ok := ev.(stream.JournalEvent)
				if !ok {
					return fmt.Errorf("record lsn %d is %T, not an engine event", lsn, ev)
				}
				return sh.Apply(ctx, lsn, jev, s.resolver)
			})
		st.Close()
		replayed += n
		if err != nil {
			return 0, 0, fmt.Errorf("recovering %s: %w", storeName(i), err)
		}
	}
	eng.SyncNextSub()
	return time.Since(began).Seconds(), replayed, nil
}

// encode JSON-encodes a response as durserve writes it, as the durserve
// layer's span, and returns its size.
func (s *system) encode(parent int64, op int, v any) int {
	start := s.log.now()
	var n countWriter
	if err := json.NewEncoder(&n).Encode(v); err != nil {
		s.fail(fmt.Errorf("encoding response: %w", err))
	}
	s.log.add("durserve.encode", parent, op, start, s.log.now())
	return int(n)
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

func (s *system) query(ctx context.Context, op int, req serve.Request) result {
	root, start := s.log.reserve(), s.log.now()
	defer s.log.finish(root, "op.query", 0, op, start)
	cs := s.log.now()
	resp, err := s.srv.Do(ctx, req)
	s.log.add("serve.do", root, op, cs, s.log.now())
	if err != nil {
		return result{kind: "query", err: err}
	}
	r := queryResult(resp, req)
	r.bytes = s.encode(root, op, resp)
	return r
}

func (s *system) batch(ctx context.Context, op int, req serve.BatchRequest) result {
	root, start := s.log.reserve(), s.log.now()
	defer s.log.finish(root, "op.batch", 0, op, start)
	cs := s.log.now()
	resp, err := s.srv.DoBatch(ctx, req)
	s.log.add("serve.do_batch", root, op, cs, s.log.now())
	if err != nil {
		return result{kind: "batch", err: err}
	}
	r := batchResult(resp, req)
	r.bytes = s.encode(root, op, resp)
	return r
}

// feedSource is durserve's random source for a stream's live feed.
func feedSource(seed uint64, name string) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rng.NewStream(seed, 1<<60|h.Sum64()>>4)
}

// ensureFeed creates the live feed and registers its stream on first
// use, as durserve's hub does on the first subscription.
func (s *system) ensureFeed() (*feed, error) {
	if s.feed != nil {
		return s.feed, nil
	}
	proc, observers, err := s.reg[streamName]()
	if err != nil {
		return nil, err
	}
	state := proc.Initial()
	if err := s.engine.RegisterModel(streamName, streamName, proc, state); err != nil {
		return nil, err
	}
	s.feed = &feed{proc: proc, observers: observers, state: state, src: feedSource(s.w.Server.Seed, streamName)}
	return s.feed, nil
}

// inSpan runs fn as a span named name under parent, visible both to
// context-carrying calls (through ctx) and to journal appends (as the
// foreground span).
func (s *system) inSpan(ctx context.Context, name string, parent int64, op int, fn func(ctx context.Context)) {
	id, start := s.log.reserve(), s.log.now()
	s.log.fgSpan.Store(&spanRef{id, op})
	fn(withSpan(ctx, id, op))
	s.log.fgSpan.Store(nil)
	s.log.finish(id, name, parent, op, start)
}

func (s *system) subscribe(ctx context.Context, op, idx int, req subscribeReq) result {
	root, start := s.log.reserve(), s.log.now()
	defer s.log.finish(root, "op.subscribe", 0, op, start)
	var sub *stream.Subscription
	var err error
	s.inSpan(ctx, "stream.subscribe", root, op, func(ctx context.Context) {
		var f *feed
		if f, err = s.ensureFeed(); err != nil {
			return
		}
		// The hub's stop rules: the quality target, then the budget cap.
		stop := mc.Any{mc.RETarget{Target: req.RelErr}, mc.Budget{Steps: maxBudget}}
		sub, err = s.engine.Subscribe(ctx, stream.SubSpec{
			Stream:     streamName,
			Obs:        f.observers["value"],
			ObserverID: "value",
			Beta:       req.Beta,
			Horizon:    req.Horizon,
			Seed:       req.Seed,
			DriftTol:   req.DriftTol,
			Stop:       stop,
		})
	})
	if err != nil {
		return result{kind: "subscribe", err: err}
	}
	s.mu.Lock()
	s.subs[idx] = sub
	s.mu.Unlock()
	resp := subscribeResponse{ID: fmt.Sprintf("sub-%d", sub.ID()), SubID: sub.ID(), Stream: streamName, Answer: toAnswerJSON(sub.Answer())}
	r := subscribeResult(resp)
	r.bytes = s.encode(root, op, resp)
	return r
}

func (s *system) sub(idx int) (*stream.Subscription, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[idx]
	if !ok {
		return nil, fmt.Errorf("no subscription %d", idx)
	}
	return sub, nil
}

func (s *system) unsubscribe(ctx context.Context, op, idx int) result {
	root, start := s.log.reserve(), s.log.now()
	defer s.log.finish(root, "op.unsubscribe", 0, op, start)
	sub, err := s.sub(idx)
	if err != nil {
		return result{kind: "unsubscribe", err: err}
	}
	s.inSpan(ctx, "stream.close", root, op, func(context.Context) { sub.Close() })
	s.mu.Lock()
	delete(s.subs, idx)
	s.mu.Unlock()
	return result{kind: "unsubscribe"}
}

// planSeconds is the time the server's plan resolutions took so far.
func (s *system) planSeconds() float64 {
	return s.tracer.Stage(telemetry.StagePlanSearch).Seconds().Sum + s.tracer.Stage(telemetry.StagePlanCache).Seconds().Sum
}

func (s *system) tick(ctx context.Context, op int) result {
	root, start := s.log.reserve(), s.log.now()
	defer s.log.finish(root, "op.tick", 0, op, start)
	f := s.feed
	if f == nil {
		return result{kind: "tick", err: errors.New("tick before any subscription created the stream")}
	}
	fs := s.log.now()
	f.steps++
	f.proc.Step(f.state, f.steps, f.src)
	s.log.add("durserve.feed_step", root, op, fs, s.log.now())

	var refreshes []stream.Refresh
	var err error
	plan0 := s.planSeconds()
	s.inSpan(ctx, "stream.update", root, op, func(ctx context.Context) {
		refreshes, err = s.engine.Update(ctx, streamName, f.state)
	})
	if err != nil {
		return result{kind: "tick", err: err}
	}
	tick, _ := s.engine.Tick(streamName)
	resp := tickResponse{Stream: streamName, Tick: tick}
	for _, rf := range refreshes {
		rj := refreshJSON{SubID: rf.SubID, Answer: toAnswerJSON(rf.Answer)}
		if rf.Err != nil {
			rj.Error = rf.Err.Error()
		}
		resp.Refreshes = append(resp.Refreshes, rj)
	}
	if op >= 0 {
		s.planInUpdates += s.planSeconds() - plan0
		s.ticks++
		for _, rf := range refreshes {
			a := rf.Answer
			s.survived += a.SurvivedRoots
			s.pooled += a.PoolRoots
			s.fresh += a.FreshRoots
			if a.Replanned {
				s.replans++
			}
		}
		if s.follower != nil {
			for _, l := range s.follower.Lags() {
				s.lagMax = max(s.lagMax, l.Records)
			}
		}
	}
	r := tickResult(resp)
	r.bytes = s.encode(root, op, resp)
	return r
}

func (s *system) settle(ctx context.Context) error {
	if s.follower == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, settleLimit)
	defer cancel()
	for {
		lags := s.follower.Lags()
		behind := -1
		for i, st := range s.stores {
			if lags[storeName(i)].AppliedLSN < st.LastLSN() {
				behind = i
				break
			}
		}
		if behind < 0 {
			return nil
		}
		sleepUntil(ctx, time.Now().Add(settleEvery))
		if ctx.Err() != nil {
			return fmt.Errorf("store %s not applied through LSN %d: %w", storeName(behind), s.stores[behind].LastLSN(), ctx.Err())
		}
	}
}

func (s *system) poll(ctx context.Context, idx int, since int64) (int64, error) {
	sub, err := s.sub(idx)
	if err != nil {
		return 0, err
	}
	a, err := sub.Wait(ctx, since)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return 0, errNoUpdate
	}
	return a.Tick, err
}

// toAnswerJSON is durserve's wire form of a maintained answer.
func toAnswerJSON(a stream.Answer) answerJSON {
	ci := a.Result.CI(0.95)
	finiteOr := func(v, fallback float64) float64 {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fallback
		}
		return v
	}
	return answerJSON{
		Tick:          a.Tick,
		P:             a.Result.P,
		StdErr:        finiteOr(a.Result.StdErr(), -1),
		RelErr:        finiteOr(a.Result.RelErr(), -1),
		CILo:          math.Max(finiteOr(ci.Lo, 0), 0),
		CIHi:          math.Min(finiteOr(ci.Hi, 1), 1),
		Satisfied:     a.Satisfied,
		PoolPaths:     a.Result.Paths,
		PoolSteps:     a.Result.Steps,
		FreshRoots:    a.FreshRoots,
		FreshSteps:    a.FreshSteps,
		SearchSteps:   a.SearchSteps,
		SurvivedRoots: a.SurvivedRoots,
		DroppedRoots:  a.DroppedRoots,
		Replanned:     a.Replanned,
		PlanCached:    a.PlanCached,
		Capped:        a.Capped,
	}
}
