package stream

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// This file is the durability surface of the maintenance engine: the
// serving state a process must carry across a restart, extracted into
// plain-data snapshot types, plus the journal events that describe every
// state mutation between snapshots. internal/persist stores both; the
// engine only defines what "the state" and "an event" are.
//
// The contract the types uphold is the repository's signature determinism
// guarantee extended across process death: Restore hands back an engine
// whose g-MLSS counters, per-root moments and root substream indices
// (nextRoot) are exactly the captured ones, and Apply re-runs
// journaled mutations through the same deterministic refresh path live
// traffic used — so a recovered engine's subsequent answers are
// bit-for-bit the answers the uninterrupted engine would have produced.

// SpecState is the serializable form of a SubSpec: everything except the
// observer function itself, which is code and is re-resolved by name at
// restore time. Specs whose ObserverID does not name an observer known to
// the restoring process cannot be recovered — durable subscriptions must
// use registered observer names.
type SpecState struct {
	Stream     string
	ObserverID string
	Beta       float64
	Horizon    int
	Ratio      int
	Seed       uint64
	SimWorkers int
	DriftTol   float64
	MaxAge     int64
	Stop       mc.Any
}

// specState extracts the serializable view of a (defaulted) SubSpec.
func specState(s SubSpec) SpecState {
	return SpecState{
		Stream:     s.Stream,
		ObserverID: s.ObserverID,
		Beta:       s.Beta,
		Horizon:    s.Horizon,
		Ratio:      s.Ratio,
		Seed:       s.Seed,
		SimWorkers: s.SimWorkers,
		DriftTol:   s.DriftTol,
		MaxAge:     s.MaxAge,
		Stop:       s.Stop,
	}
}

// subSpec rebuilds the live SubSpec around a resolved observer.
func (st SpecState) subSpec(obs stochastic.Observer) SubSpec {
	return SubSpec{
		Stream:     st.Stream,
		Obs:        obs,
		ObserverID: st.ObserverID,
		Beta:       st.Beta,
		Horizon:    st.Horizon,
		Ratio:      st.Ratio,
		Seed:       st.Seed,
		SimWorkers: st.SimWorkers,
		DriftTol:   st.DriftTol,
		MaxAge:     st.MaxAge,
		Stop:       st.Stop,
	}
}

// BatchState is one unit of root survival as it appears in a snapshot:
// the g-MLSS sufficient statistics of a batch of root trees, dormant ones
// included — a revisit after recovery must find its roots alive exactly
// as it would have before the restart.
type BatchState struct {
	Tick      int64
	F0        float64
	InitLevel int
	Plan      core.Plan
	Roots     int64
	Steps     int64
	Agg       core.Counters
	Moments   core.Moments
}

// SubState is the full maintenance state of one subscription: the spec,
// the resolved plan and its drift bucket, the root pool, the next root
// substream index, and the published answer. Restoring it resumes
// maintenance as if the process never died.
type SubState struct {
	ID       uint64
	Spec     SpecState
	HavePlan bool
	Plan     core.Plan
	Bucket   int
	NextRoot int64
	Batches  []BatchState
	Answer   Answer
	Stats    SubStats
}

// StreamState is one live state and its subscriptions. LSN is the journal
// sequence number of the last mutation this stream has applied; replay
// skips events at or below it, which is what makes a snapshot taken while
// traffic flows consistent with the WAL around it.
type StreamState struct {
	Name    string
	ModelID string
	State   stochastic.State
	Tick    int64
	LSN     int64
	Subs    []SubState
}

// ConfigState echoes the engine settings that are part of the maintained
// numerics. A snapshot restored under different settings would replay and
// refresh along a different trajectory, so Restore refuses the mismatch
// instead of silently breaking the determinism guarantee.
type ConfigState struct {
	DriftTol         float64
	StartBucketWidth float64
	TopUpRoots       int
	MaxAgeTicks      int64
	MaxRefreshSteps  int64
	// GroupRoots and BootstrapReps are non-zero only in snapshots written
	// while refreshes bootstrapped their variance: those batches carry
	// bootstrap groups of GroupRoots roots, not the per-root moments the
	// engine now merges. The fields stay so such snapshots still decode,
	// and Restore refuses them by name.
	GroupRoots    int
	BootstrapReps int
}

// configState extracts the numerics-relevant settings of a (defaulted)
// Config. RefreshWorkers and the execution backend are deliberately
// absent: both only decide placement and scheduling, never numerics.
func configState(c Config) ConfigState {
	return ConfigState{
		DriftTol:         c.DriftTol,
		StartBucketWidth: c.StartBucketWidth,
		TopUpRoots:       c.TopUpRoots,
		MaxAgeTicks:      c.MaxAgeTicks,
		MaxRefreshSteps:  c.MaxRefreshSteps,
	}
}

// EngineCounters are the engine's lifetime cost counters, carried so a
// recovered server's accounting continues rather than resetting. Events
// replayed from the WAL tail re-book their cost on top; a tick that was
// both captured by the snapshot and replayed counts twice in these
// aggregates (never in any answer), which recovery accepts as noise.
type EngineCounters struct {
	Ticks       int64
	Refreshes   int64
	FreshRoots  int64
	FreshSteps  int64
	SearchSteps int64
	Replans     int64
	Dropped     int64
}

// EngineSnapshot is the engine's full serving state at one instant.
//
//durlint:gobroot
type EngineSnapshot struct {
	Config   ConfigState
	NextSub  uint64
	Counters EngineCounters
	Streams  []StreamState
}

// Resolver rebuilds a stream's dynamics and named observers at restore
// time. Processes and observers are code, not data — the registry idiom of
// internal/cluster — so snapshots and events carry only names and the
// restoring process supplies the implementations.
type Resolver func(stream, modelID string) (stochastic.Process, map[string]stochastic.Observer, error)

// JournalEvent is one logged engine mutation. The concrete types are
// registered with gob so events round-trip through persist WAL records as
// interface values.
//
//durlint:gobroot
type JournalEvent interface{ journalEvent() }

// EvRegistered records a stream's creation — or, when the name already
// existed, the recalibration that replaced its dynamics and reset its
// state (which also invalidates the stream's cached plans on replay).
type EvRegistered struct {
	Name    string
	ModelID string
	State   stochastic.State
}

// EvSubscribed records a successfully registered standing query with its
// engine-assigned ID. Replay re-runs the initial refresh through the same
// deterministic path, reconstructing the pool the live subscribe built.
type EvSubscribed struct {
	Spec SpecState
	ID   uint64
}

// EvClosed records a subscription's deregistration.
type EvClosed struct {
	ID uint64
}

// EvUpdated records one published state of a live stream. Replay re-runs
// every affected subscription's refresh; determinism makes the replayed
// refreshes consume exactly the root substreams the live refreshes
// consumed.
type EvUpdated struct {
	Name  string
	State stochastic.State
}

func (EvRegistered) journalEvent() {}
func (EvSubscribed) journalEvent() {}
func (EvClosed) journalEvent()     {}
func (EvUpdated) journalEvent()    {}

func init() {
	gob.Register(EvRegistered{})
	gob.Register(EvSubscribed{})
	gob.Register(EvClosed{})
	gob.Register(EvUpdated{})
}

// Journal receives every engine mutation as it happens and returns the
// record's log sequence number (monotonically increasing). The engine
// stores the LSN on the mutated stream, and snapshots carry it, so replay
// can tell which journaled events a snapshot already includes.
// internal/persist's Store is the intended implementation.
type Journal interface {
	Record(ev JournalEvent) (lsn int64, err error)
}

// SetJournal attaches (or detaches, with nil) the engine's journal. Attach
// after Restore and replay, never before — a journal active during replay
// would re-log every replayed event.
func (e *Engine) SetJournal(j Journal) {
	e.jmu.Lock()
	e.journal = j
	e.jmu.Unlock()
}

// record journals one event, returning lsn 0 with no journal attached.
func (e *Engine) record(ev JournalEvent) (int64, error) {
	e.jmu.RLock()
	j := e.journal
	e.jmu.RUnlock()
	if j == nil {
		return 0, nil
	}
	return j.Record(ev)
}

// Snapshot captures the engine's full serving state. It locks each stream
// briefly (streams snapshot one at a time, in name order) and copies only
// what later mutation could touch: batch contents are immutable once
// simulated, so the pool is captured by reference; states and generators
// are copied by value. Safe to run concurrently with live traffic — the
// per-stream LSNs reconcile the snapshot with the journal around it.
func (e *Engine) Snapshot() EngineSnapshot {
	snap := EngineSnapshot{
		Config:  configState(e.cfg),
		NextSub: e.nextSub.Load(),
		Counters: EngineCounters{
			Ticks:       e.ticks.Load(),
			Refreshes:   e.refreshes.Load(),
			FreshRoots:  e.freshRoots.Load(),
			FreshSteps:  e.freshSteps.Load(),
			SearchSteps: e.searchSteps.Load(),
			Replans:     e.replans.Load(),
			Dropped:     e.dropped.Load(),
		},
	}
	e.mu.RLock()
	streams := make([]*liveState, 0, len(e.streams))
	for _, ls := range e.streams {
		streams = append(streams, ls)
	}
	e.mu.RUnlock()
	sort.Slice(streams, func(i, j int) bool { return streams[i].name < streams[j].name })

	for _, ls := range streams {
		ls.mu.Lock()
		ss := StreamState{
			Name:    ls.name,
			ModelID: ls.modelID,
			State:   ls.state.Clone(),
			Tick:    ls.tick,
			LSN:     ls.lsn,
			Subs:    make([]SubState, 0, len(ls.subs)),
		}
		subs := make([]*Subscription, 0, len(ls.subs))
		for _, sub := range ls.subs {
			subs = append(subs, sub)
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
		for _, sub := range subs {
			ss.Subs = append(ss.Subs, sub.extract())
		}
		ls.mu.Unlock()
		snap.Streams = append(snap.Streams, ss)
	}
	return snap
}

// extract captures one subscription's maintenance and published state.
// The caller holds ls.mu.
func (s *Subscription) extract() SubState {
	st := SubState{
		ID:       s.id,
		Spec:     specState(s.spec),
		HavePlan: s.havePlan,
		Plan:     s.plan,
		Bucket:   s.bucket,
		NextRoot: s.nextRoot,
		Batches:  make([]BatchState, 0, len(s.batches)),
		Answer:   s.Answer(),
		Stats:    s.Stats(),
	}
	for _, b := range s.batches {
		st.Batches = append(st.Batches, BatchState{
			Tick: b.tick, F0: b.f0, InitLevel: b.initLevel, Plan: b.plan,
			Roots: b.roots, Steps: b.steps, Agg: b.agg, Moments: b.moments,
		})
	}
	return st
}

// Restore loads a snapshot into a freshly constructed engine, rebuilding
// each stream's dynamics and each subscription's observer through the
// resolver. The engine must be empty (no streams, no subscriptions) and
// configured with the same numerics-relevant settings the snapshot was
// taken under.
func (e *Engine) Restore(snap EngineSnapshot, resolve Resolver) error {
	if resolve == nil {
		return errors.New("stream: Restore needs a resolver")
	}
	if old := snap.Config; old.GroupRoots != 0 || old.BootstrapReps != 0 {
		return fmt.Errorf("stream: snapshot predates moment-based variance — its batches carry bootstrap groups (%d roots each, %d replicates), not the per-root moments this engine merges; move the data directory aside and re-subscribe", old.GroupRoots, old.BootstrapReps)
	}
	if have := configState(e.cfg); have != snap.Config {
		return fmt.Errorf("stream: snapshot was maintained under engine settings %+v, this engine runs %+v — restart with the original settings", snap.Config, have)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.streams) != 0 || e.nextSub.Load() != 0 {
		return errors.New("stream: Restore requires an empty engine")
	}

	nextSub := snap.NextSub
	for _, ss := range snap.Streams {
		proc, observers, err := resolve(ss.Name, ss.ModelID)
		if err != nil {
			return fmt.Errorf("stream: restoring %q: %w", ss.Name, err)
		}
		if proc == nil || ss.State == nil {
			return fmt.Errorf("stream: restoring %q: nil process or state", ss.Name)
		}
		ls := &liveState{
			name:    ss.Name,
			modelID: ss.ModelID,
			proc:    proc,
			state:   ss.State.Clone(),
			tick:    ss.Tick,
			lsn:     ss.LSN,
			subs:    make(map[uint64]*Subscription, len(ss.Subs)),
		}
		for _, sst := range ss.Subs {
			obs, ok := observers[sst.Spec.ObserverID]
			if !ok {
				return fmt.Errorf("stream: restoring subscription %d on %q: model %q has no observer %q — durable subscriptions must use registered observer names", sst.ID, ss.Name, ss.ModelID, sst.Spec.ObserverID)
			}
			sub := &Subscription{
				id:       sst.ID,
				engine:   e,
				ls:       ls,
				spec:     sst.Spec.subSpec(obs),
				havePlan: sst.HavePlan,
				plan:     sst.Plan,
				bucket:   sst.Bucket,
				nextRoot: sst.NextRoot,
				answer:   sst.Answer,
				stats:    sst.Stats,
				notify:   make(chan struct{}),
			}
			for _, bs := range sst.Batches {
				sub.batches = append(sub.batches, &batch{
					tick: bs.Tick, f0: bs.F0, initLevel: bs.InitLevel, plan: bs.Plan,
					roots: bs.Roots, steps: bs.Steps, agg: bs.Agg, moments: bs.Moments,
				})
			}
			ls.subs[sub.id] = sub
			if sub.id > nextSub {
				nextSub = sub.id
			}
		}
		e.streams[ss.Name] = ls
	}
	e.nextSub.Store(nextSub)
	e.ticks.Store(snap.Counters.Ticks)
	e.refreshes.Store(snap.Counters.Refreshes)
	e.freshRoots.Store(snap.Counters.FreshRoots)
	e.freshSteps.Store(snap.Counters.FreshSteps)
	e.searchSteps.Store(snap.Counters.SearchSteps)
	e.replans.Store(snap.Counters.Replans)
	e.dropped.Store(snap.Counters.Dropped)
	return nil
}

// Apply replays one journaled event onto the engine — the recovery path
// after Restore. Events the snapshot already includes (lsn at or below the
// event's stream's restored LSN) are skipped, so a snapshot taken mid-WAL
// composes with the records around it. Attach the journal only after the
// whole tail is applied.
func (e *Engine) Apply(ctx context.Context, lsn int64, ev JournalEvent, resolve Resolver) error {
	switch ev := ev.(type) {
	case EvRegistered:
		if ls, err := e.stream(ev.Name); err == nil {
			ls.mu.Lock()
			done := ls.lsn >= lsn
			ls.mu.Unlock()
			if done {
				return nil
			}
		}
		proc, _, err := resolve(ev.Name, ev.ModelID)
		if err != nil {
			return fmt.Errorf("stream: replaying registration of %q: %w", ev.Name, err)
		}
		if err := e.RegisterModel(ev.Name, ev.ModelID, proc, ev.State); err != nil {
			return err
		}
		return e.stampLSN(ev.Name, lsn)

	case EvSubscribed:
		ls, err := e.stream(ev.Spec.Stream)
		if err != nil {
			return fmt.Errorf("stream: replaying subscription %d: %w", ev.ID, err)
		}
		ls.mu.Lock()
		done := ls.lsn >= lsn
		ls.mu.Unlock()
		if done {
			return nil
		}
		_, observers, err := resolve(ls.name, ls.modelID)
		if err != nil {
			return fmt.Errorf("stream: replaying subscription %d: %w", ev.ID, err)
		}
		obs, ok := observers[ev.Spec.ObserverID]
		if !ok {
			return fmt.Errorf("stream: replaying subscription %d: model %q has no observer %q", ev.ID, ls.modelID, ev.Spec.ObserverID)
		}
		if _, err := e.subscribe(ctx, ev.Spec.subSpec(obs), ev.ID, lsn, true); err != nil {
			return fmt.Errorf("stream: replaying subscription %d: %w", ev.ID, err)
		}
		if next := e.nextSub.Load(); ev.ID > next {
			e.nextSub.Store(ev.ID)
		}
		return nil

	case EvClosed:
		sub := e.findSub(ev.ID)
		if sub == nil {
			return nil // closed before the snapshot; nothing to replay
		}
		sub.ls.mu.Lock()
		done := sub.ls.lsn >= lsn
		if !done {
			sub.ls.lsn = lsn
		}
		sub.ls.mu.Unlock()
		if !done {
			sub.Close()
		}
		return nil

	case EvUpdated:
		ls, err := e.stream(ev.Name)
		if err != nil {
			return fmt.Errorf("stream: replaying update of %q: %w", ev.Name, err)
		}
		ls.mu.Lock()
		defer ls.mu.Unlock()
		if ls.lsn >= lsn {
			return nil
		}
		ls.state = ev.State.Clone()
		ls.tick++
		ls.lsn = lsn
		e.ticks.Add(1)
		// Per-subscription refresh errors are tolerated exactly as the
		// live Update path tolerates them (the next tick retries): the
		// event was journaled before the live outcome was known, so
		// failing recovery over one would turn a tolerated transient —
		// a cancelled request, a brief backend outage — into a data
		// directory that can never boot. A refresh that failed live and
		// succeeds on replay (or vice versa) voids bit-for-bit equality
		// until the next checkpoint, the documented boundary for
		// non-deterministic mid-tick failures.
		e.refreshLocked(ctx, ls)
		return nil

	default:
		return fmt.Errorf("stream: unknown journal event %T", ev)
	}
}

// stampLSN records lsn as applied on the named stream.
func (e *Engine) stampLSN(name string, lsn int64) error {
	ls, err := e.stream(name)
	if err != nil {
		return err
	}
	ls.mu.Lock()
	if lsn > ls.lsn {
		ls.lsn = lsn
	}
	ls.mu.Unlock()
	return nil
}

// Subscription finds a live subscription by its engine-unique ID — the
// handle front ends re-bind their own identifiers to after recovery.
func (e *Engine) Subscription(id uint64) (*Subscription, bool) {
	sub := e.findSub(id)
	return sub, sub != nil
}

// Subscriptions lists every live subscription, ordered by ID. Recovery
// paths use it to re-attach to (or reap) standing queries whose owner
// handles died with the previous process.
func (e *Engine) Subscriptions() []*Subscription {
	e.mu.RLock()
	streams := make([]*liveState, 0, len(e.streams))
	//durlint:ignore maporder intermediate only; the derived subscription list is sorted by ID below
	for _, ls := range e.streams {
		streams = append(streams, ls)
	}
	e.mu.RUnlock()
	var out []*Subscription
	for _, ls := range streams {
		ls.mu.Lock()
		for _, sub := range ls.subs {
			out = append(out, sub)
		}
		ls.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// findSub locates a subscription by ID across all streams.
func (e *Engine) findSub(id uint64) *Subscription {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, ls := range e.streams {
		ls.mu.Lock()
		sub, ok := ls.subs[id]
		ls.mu.Unlock()
		if ok {
			return sub
		}
	}
	return nil
}
