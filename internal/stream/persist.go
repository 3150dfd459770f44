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
// (nextRoot) are exactly the captured ones. The journal records what each
// refresh decided — the plan it resolved, the fresh batches it simulated,
// how it ended — not the command that triggered it, and Apply installs
// those decisions through the same refresh body live traffic ran, minus
// the plan search and the simulation. A recovered engine therefore holds
// bit-for-bit the state of the uninterrupted one, whatever backend it
// replays on and whether or not its live refreshes failed.

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
	// DriftTol, StartBucketWidth, TopUpRoots and MaxAgeTicks are always
	// the engine's constants (DefaultDriftTol, DefaultStartBucketWidth,
	// DefaultTopUpRoots, DefaultMaxAgeTicks). They stay so older
	// snapshots decode and one taken under other values is refused.
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
// Config, with the engine's fixed maintenance constants. The execution
// backend is deliberately absent: it only decides placement, never
// numerics.
func configState(c Config) ConfigState {
	return ConfigState{
		DriftTol:         DefaultDriftTol,
		StartBucketWidth: DefaultStartBucketWidth,
		TopUpRoots:       DefaultTopUpRoots,
		MaxAgeTicks:      DefaultMaxAgeTicks,
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

// EvAdded records a successfully registered standing query with its
// engine-assigned ID and what its initial refresh decided. Replay
// installs that outcome; it never searches or simulates.
type EvAdded struct {
	Spec    SpecState
	ID      uint64
	Outcome Outcome
}

// EvClosed records a subscription's deregistration.
type EvClosed struct {
	ID uint64
}

// EvTicked records one published state of a live stream together with
// the outcome of every refresh on it that resolved a plan, simulated
// fresh roots, or ended capped or with an error, ordered by subscription
// ID. Refreshes that did none of these carry no entry: replay recomputes
// them from the pool alone.
type EvTicked struct {
	Name     string
	State    stochastic.State
	Outcomes []Outcome
}

// Outcome is what one refresh decided, as a journal record carries it.
// An Outcome with only its ID set decided nothing: the refresh kept its
// plan and needed no top-up.
type Outcome struct {
	ID uint64
	// Plan is set when the refresh resolved its plan (the first refresh,
	// or a drift-bucket crossing).
	Plan *PlanOutcome
	// Batches are the fresh batches the top-up simulated, in order. Their
	// tick, start value, start level and plan are the refresh's own.
	Batches []BatchOutcome
	// End is set when the top-up stopped short of the quality target.
	End *EndOutcome
}

// PlanOutcome is one plan resolution: the plan, what the search cost and
// whether the shared cache served it — or the error that left the
// subscription on its previous plan and answer.
type PlanOutcome struct {
	Plan        core.Plan
	SearchSteps int64
	CacheHit    bool
	Err         string
}

// BatchOutcome is one top-up round's fresh batch: its roots, their
// simulator invocations, and its g-MLSS counters and per-root moments.
type BatchOutcome struct {
	Roots   int64
	Steps   int64
	Agg     core.Counters
	Moments core.Moments
}

// EndOutcome is a top-up that stopped short of the quality target: the
// root cursor it left, whether it counts as capped, and the error that
// stopped it ("" for a step cap).
type EndOutcome struct {
	NextRoot int64
	Capped   bool
	Err      string
}

// EvSubscribed and EvUpdated are the records of the command log this
// journal replaced: each told replay to re-run a refresh. They stay
// declared and gob-registered only so that an old log still decodes and
// Apply can refuse it by name.
type EvSubscribed struct {
	Spec SpecState
	ID   uint64
}

// EvUpdated is the command log's tick record; see EvSubscribed.
type EvUpdated struct {
	Name  string
	State stochastic.State
}

func (EvRegistered) journalEvent() {}
func (EvAdded) journalEvent()      {}
func (EvClosed) journalEvent()     {}
func (EvTicked) journalEvent()     {}
func (EvSubscribed) journalEvent() {}
func (EvUpdated) journalEvent()    {}

func init() {
	gob.Register(EvRegistered{})
	gob.Register(EvAdded{})
	gob.Register(EvClosed{})
	gob.Register(EvTicked{})
	gob.Register(EvSubscribed{})
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
		for _, sub := range ls.sorted() {
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
		p := b.Pool()
		st.Batches = append(st.Batches, BatchState{
			Tick: b.tick, F0: b.f0, InitLevel: b.initLevel, Plan: b.plan,
			Roots: b.Roots, Steps: b.Steps, Agg: p.Counters, Moments: p.Moments,
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
			sub := newSubscription(e, ls, sst.Spec.subSpec(obs), sst.ID)
			sub.havePlan, sub.plan, sub.bucket, sub.nextRoot = sst.HavePlan, sst.Plan, sst.Bucket, sst.NextRoot
			sub.answer, sub.stats = sst.Answer, sst.Stats
			for i, bs := range sst.Batches {
				packed, err := core.Pack(core.Pool{Counters: bs.Agg, Moments: bs.Moments, Roots: bs.Roots, Steps: bs.Steps})
				if err != nil {
					return fmt.Errorf("stream: restoring subscription %d on %q: batch %d: %w", sst.ID, ss.Name, i, err)
				}
				sub.batches = append(sub.batches, &batch{
					tick: bs.Tick, f0: bs.F0, initLevel: bs.InitLevel, plan: bs.Plan,
					PackedPool: packed,
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

// Apply replays one journaled event onto the engine — the recovery and
// follower path after Restore. Events the snapshot already includes (lsn
// at or below the event's stream's restored LSN) are skipped, so a
// snapshot taken mid-WAL composes with the records around it. Subscribe
// and tick records install the outcomes they carry: Apply never resolves
// a plan through a search and never simulates, so it needs neither the
// executor nor a warm plan cache, and a refresh that failed live fails
// identically here. Attach the journal only after the whole tail is
// applied.
func (e *Engine) Apply(ctx context.Context, lsn int64, ev JournalEvent, resolve Resolver) error {
	switch ev := ev.(type) {
	case EvRegistered:
		if ls, err := e.stream(ev.Name); err == nil && ls.applied(lsn) {
			return nil
		}
		proc, _, err := resolve(ev.Name, ev.ModelID)
		if err != nil {
			return fmt.Errorf("stream: replaying registration of %q: %w", ev.Name, err)
		}
		if err := e.RegisterModel(ev.Name, ev.ModelID, proc, ev.State); err != nil {
			return err
		}
		return e.stampLSN(ev.Name, lsn)

	case EvAdded:
		ls, err := e.stream(ev.Spec.Stream)
		if err != nil {
			return fmt.Errorf("stream: replaying subscription %d: %w", ev.ID, err)
		}
		if ls.applied(lsn) {
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
		sub := newSubscription(e, ls, ev.Spec.subSpec(obs), ev.ID)
		ls.mu.Lock()
		defer ls.mu.Unlock()
		ans, r, err := sub.refresh(ctx, ls.proc, ls.state, ls.tick, &ev.Outcome, nil)
		if err != nil {
			// Only successful subscribes are journaled.
			return fmt.Errorf("stream: replaying subscription %d: %w", ev.ID, err)
		}
		if r.publish {
			sub.store(ans)
		}
		ls.subs[sub.id] = sub
		ls.lsn = lsn
		e.adoptID(ev.ID)
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

	case EvTicked:
		ls, err := e.stream(ev.Name)
		if err != nil {
			return fmt.Errorf("stream: replaying tick of %q: %w", ev.Name, err)
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
		// Outcomes and subscriptions are both in ID order; a subscription
		// without an entry decided nothing and replays from its pool.
		next := ev.Outcomes
		var none Outcome
		var seed []float64
		for _, sub := range ls.sorted() {
			rec := &none
			if len(next) > 0 && next[0].ID == sub.id {
				rec, next = &next[0], next[1:]
			}
			ans, r, err := sub.refresh(ctx, ls.proc, ls.state, ls.tick, rec, &seed)
			if errors.Is(err, errDiverged) {
				return fmt.Errorf("stream: replaying tick %d of %q: %w", ls.tick, ev.Name, err)
			}
			// Any other error is the recorded outcome, reproduced: the
			// live tick kept the subscription's failed refresh too.
			if r.publish {
				sub.store(ans)
			}
		}
		if len(next) > 0 {
			return fmt.Errorf("stream: replaying tick %d of %q: %w: the record carries an outcome for subscription %d, which the stream does not hold", ls.tick, ev.Name, errDiverged, next[0].ID)
		}
		return nil

	case EvSubscribed:
		return e.refuseCommand(lsn, ev.Spec.Stream, ev)
	case EvUpdated:
		return e.refuseCommand(lsn, ev.Name, ev)

	default:
		return fmt.Errorf("stream: unknown journal event %T", ev)
	}
}

// refuseCommand rejects a command-log record the snapshot does not
// already cover. Such a record asks replay to re-run a refresh whose
// outcome it never recorded, which this engine no longer does.
func (e *Engine) refuseCommand(lsn int64, name string, ev JournalEvent) error {
	if ls, err := e.stream(name); err == nil && ls.applied(lsn) {
		return nil
	}
	return fmt.Errorf("stream: record %d (%T) is from a journal that predates refresh-outcome records; checkpoint the data directory with the previous binary (a clean shutdown leaves a final checkpoint and an empty log tail), or move it aside and re-subscribe", lsn, ev)
}

// errDiverged marks a record that does not fit the state it is replayed
// onto: an outcome for a subscription the stream lacks, or a refresh
// whose recorded decisions disagree with what the pool requires.
var errDiverged = errors.New("journal diverges from the replayed state")

// applied reports whether the stream has already applied lsn.
func (ls *liveState) applied(lsn int64) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.lsn >= lsn
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
// paths use it to re-attach to standing queries whose owner handles died
// with the previous process.
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
