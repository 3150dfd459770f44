// Package stream maintains standing durability queries over live state
// streams: pay a little per update instead of re-evaluating per query.
//
// The paper answers one durability prediction query at a point in time,
// and internal/serve amortizes the level-search cost across a batch of
// such queries. Production monitoring workloads are different in kind:
// millions of clients register a query once ("will this position go 300
// into profit within 500 days?") and want its answer to track a live
// state stream tick by tick. Recomputing every answer from scratch per
// tick multiplies the whole sampling cost by the tick rate; this package
// instead maintains each answer incrementally, the shift from
// re-evaluation to incremental view maintenance that Berkholz et al.
// ("Answering FO+MOD queries under updates") frame for query answering
// under updates.
//
// Three reuse mechanisms make an update cheap:
//
//   - Plan reuse across drift. Level plans are memoized in the shared
//     serve.PlanCache under drift-bucketed keys: the normalized start
//     value f0 = z(state)/beta is bucketed, and a plan is re-searched
//     only when the live state drifts across a bucket boundary. A stream
//     oscillating inside a bucket — or returning to one it has visited —
//     reuses plans for free.
//
//   - Root survival. Each subscription keeps the g-MLSS sufficient
//     statistics of the root trees it has simulated, in small batches
//     tagged with the start value and tick they were simulated at. On an
//     update, batches whose start value still lies within the drift
//     tolerance of the new state (and which are not too old) survive and
//     keep contributing to the estimate; only the drifted-away remainder
//     is discarded.
//
//   - Quality-targeted top-up. After survival pruning, the engine
//     simulates just enough fresh root trees from the new state to
//     restore the subscription's quality target (CI width or relative
//     error), instead of restarting the sampler from zero.
//
// The answer over a surviving pool mixes root trees whose start states
// differ by at most DriftTol·beta in observed value (and at most
// MaxAgeTicks in age), so a maintained answer is an estimate for a small
// neighborhood of the current state rather than its exact point value —
// the staleness is bounded and configurable, and both knobs trade
// per-tick cost against it. MLSS unbiasedness under any level plan
// (§3.2, §4.1 of the paper) means plan reuse itself never affects
// correctness, only efficiency.
package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"durability/internal/exec"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

// Defaults for Config fields left zero.
const (
	// DefaultDriftTol is the survival tolerance: a batch of root trees
	// contributes to the answer while the live state's normalized value
	// stays within this distance of the batch's start value. Durability
	// answers are steeply sensitive to the start state (rare-event
	// probabilities fall roughly exponentially in the distance to the
	// threshold), so the default is tight; subscriptions whose answers
	// vary gently can raise it per SubSpec for cheaper maintenance.
	DefaultDriftTol = 0.025
	// DefaultStartBucketWidth buckets the normalized start value for plan
	// keying; a plan is re-searched only when the state crosses a bucket
	// boundary.
	DefaultStartBucketWidth = 0.25
	// DefaultTopUpRoots is the number of fresh root trees simulated per
	// top-up round.
	DefaultTopUpRoots = 64
	// DefaultMaxAgeTicks expires batches by age even when the state has
	// not drifted, bounding answer staleness on a becalmed stream.
	DefaultMaxAgeTicks = 128
	// DefaultMaxRefreshSteps caps one refresh's fresh simulation, so a
	// quality target that has become unreachable (the event drifted to
	// near-impossible) degrades to a capped answer instead of stalling
	// the whole tick. The value is sized to a few times a typical full
	// cold fill: a fast-moving stream whose pool churns every tick pays
	// at most this much per tick, which keeps even pathological
	// subscriptions (answer pinned near zero, nothing ever surviving)
	// from monopolizing a high-rate ticker.
	DefaultMaxRefreshSteps = 5_000_000
)

// Config tunes an Engine. The zero value selects every default.
type Config struct {
	// Runner executes plan searches; its PlanCache (when present) is
	// shared with any other subsystem holding the same runner, so
	// standing queries and one-shot queries amortize searches together.
	// A nil Runner gets a private runner with a private cache.
	Runner *serve.Runner

	// Exec is the execution backend refresh top-ups run on: the fresh
	// root trees a refresh simulates are placed by it, in-process for
	// exec.Local (the default) or across a worker fleet for
	// exec.Cluster. Because every backend upholds the determinism
	// invariant — root i draws from substream i regardless of placement —
	// a sharded engine maintains bit-for-bit the answers a single-machine
	// engine would. Remote backends rebuild models by registry name, so
	// streams must be registered through RegisterModel with the name the
	// workers know. Apply never calls it: replay installs the batches the
	// journal recorded.
	Exec exec.Executor

	DriftTol         float64 // batch survival tolerance on |Δf0| (default DefaultDriftTol)
	StartBucketWidth float64 // plan-key bucket width on f0 (default DefaultStartBucketWidth)
	TopUpRoots       int     // fresh roots per top-up round (default DefaultTopUpRoots)
	MaxAgeTicks      int64   // batch age cap in ticks (default DefaultMaxAgeTicks)
	MaxRefreshSteps  int64   // per-refresh fresh-simulation cap (default DefaultMaxRefreshSteps)

	// RefreshWorkers bounds how many subscriptions of one stream are
	// refreshed concurrently per update (default GOMAXPROCS).
	RefreshWorkers int

	// Metrics, when non-nil, receives per-tick refresh telemetry (tick and
	// refresh durations, subscriptions refreshed and roots topped up per
	// tick, dormant revivals, drift re-searches). Telemetry only: nothing
	// read from it ever feeds maintenance decisions or answers.
	Metrics *telemetry.EngineMetrics
}

func (c Config) withDefaults() Config {
	if c.Runner == nil {
		c.Runner = &serve.Runner{Cache: serve.NewPlanCache(0)}
	}
	if c.Exec == nil {
		c.Exec = exec.Local{}
	}
	if c.DriftTol <= 0 {
		c.DriftTol = DefaultDriftTol
	}
	if c.StartBucketWidth <= 0 {
		c.StartBucketWidth = DefaultStartBucketWidth
	}
	if c.TopUpRoots <= 0 {
		c.TopUpRoots = DefaultTopUpRoots
	}
	if c.MaxAgeTicks <= 0 {
		c.MaxAgeTicks = DefaultMaxAgeTicks
	}
	if c.MaxRefreshSteps <= 0 {
		c.MaxRefreshSteps = DefaultMaxRefreshSteps
	}
	if c.RefreshWorkers <= 0 {
		c.RefreshWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// liveState is one named stream: the process whose futures are simulated,
// the current state, and the subscriptions maintained against it. mu
// serializes updates (and subscribe/close) on this stream; distinct
// streams update independently.
type liveState struct {
	name string
	// modelID names the model in a remote worker's registry, for
	// distributed execution backends; it defaults to the stream name.
	modelID string

	mu    sync.Mutex
	proc  stochastic.Process
	state stochastic.State
	tick  int64
	subs  map[uint64]*Subscription
	// lsn is the journal sequence number of the last mutation applied to
	// this stream; snapshots carry it so WAL replay can skip events a
	// snapshot already includes (see persist.go).
	lsn int64
}

// Engine is the subscription registry and maintenance engine: clients
// register standing durability queries against named live states, and
// every state update refreshes the affected answers incrementally. An
// Engine is safe for concurrent use; it runs no background goroutines of
// its own (updates are maintained on the caller's goroutine, fanned out
// over a bounded worker set).
type Engine struct {
	cfg    Config
	runner *serve.Runner

	mu      sync.RWMutex
	streams map[string]*liveState

	// journal, when attached, receives every engine mutation as a
	// JournalEvent before-or-as it lands (see persist.go); nil engines
	// journal nothing and pay nothing.
	jmu     sync.RWMutex
	journal Journal

	nextSub atomic.Uint64

	// lifetime counters, for EngineStats
	ticks       atomic.Int64
	refreshes   atomic.Int64
	freshRoots  atomic.Int64
	freshSteps  atomic.Int64
	searchSteps atomic.Int64
	replans     atomic.Int64
	dropped     atomic.Int64
}

// NewEngine builds an engine from the config.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:     cfg,
		runner:  cfg.Runner,
		streams: make(map[string]*liveState),
	}
}

// Register creates the named live state with the given dynamics and
// initial snapshot (which is cloned). Re-registering an existing name
// replaces its process and state — the recalibration path — and
// invalidates every plan cached for the stream, since plans tuned for
// the old dynamics may be badly shaped for the new ones; existing
// subscriptions survive and replan lazily on the next update.
func (e *Engine) Register(name string, proc stochastic.Process, initial stochastic.State) error {
	return e.RegisterModel(name, name, proc, initial)
}

// RegisterModel is Register with an explicit model identifier: the name
// remote workers of a distributed execution backend rebuild the model
// under. Engines on the local backend never consult it; Register
// defaults it to the stream name.
func (e *Engine) RegisterModel(name, modelID string, proc stochastic.Process, initial stochastic.State) error {
	ls, created, err := e.ensure(name, modelID, proc, initial)
	if err != nil || created {
		return err
	}

	ls.mu.Lock()
	lsn, rerr := e.record(EvRegistered{Name: name, ModelID: modelID, State: initial.Clone()})
	if rerr != nil {
		ls.mu.Unlock()
		return fmt.Errorf("stream: journaling re-registration of %q: %w", name, rerr)
	}
	replaced := ls.proc != proc
	ls.proc = proc
	ls.modelID = modelID
	ls.state = initial.Clone()
	if lsn > ls.lsn {
		ls.lsn = lsn
	}
	for _, sub := range ls.subs {
		sub.forceReplan()
	}
	ls.mu.Unlock()
	if replaced && e.runner.Cache != nil {
		e.runner.Cache.Invalidate(func(k serve.PlanKey) bool { return k.Model == name })
	}
	return nil
}

// Ensure registers the named live state if it does not exist yet, as one
// atomic check-and-create — concurrent first uses of a stream name race
// safely, unlike a caller-side Has-then-Register, whose loser would take
// Register's replace path and needlessly reset the stream. An existing
// stream is left untouched.
func (e *Engine) Ensure(name string, proc stochastic.Process, initial stochastic.State) error {
	_, _, err := e.ensure(name, name, proc, initial)
	return err
}

// ensure validates and atomically creates-or-finds the named stream.
func (e *Engine) ensure(name, modelID string, proc stochastic.Process, initial stochastic.State) (ls *liveState, created bool, err error) {
	if name == "" {
		return nil, false, errors.New("stream: empty stream name")
	}
	if proc == nil {
		return nil, false, errors.New("stream: nil process")
	}
	if initial == nil {
		return nil, false, errors.New("stream: nil initial state")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ls, ok := e.streams[name]; ok {
		return ls, false, nil
	}
	lsn, err := e.record(EvRegistered{Name: name, ModelID: modelID, State: initial.Clone()})
	if err != nil {
		return nil, false, fmt.Errorf("stream: journaling registration of %q: %w", name, err)
	}
	ls = &liveState{
		name:    name,
		modelID: modelID,
		proc:    proc,
		state:   initial.Clone(),
		subs:    make(map[uint64]*Subscription),
		lsn:     lsn,
	}
	e.streams[name] = ls
	return ls, true, nil
}

// Has reports whether the named stream exists.
func (e *Engine) Has(name string) bool {
	e.mu.RLock()
	_, ok := e.streams[name]
	e.mu.RUnlock()
	return ok
}

// Tick returns the named stream's current tick (0 before any update).
func (e *Engine) Tick(name string) (int64, bool) {
	e.mu.RLock()
	ls, ok := e.streams[name]
	e.mu.RUnlock()
	if !ok {
		return 0, false
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.tick, true
}

func (e *Engine) stream(name string) (*liveState, error) {
	e.mu.RLock()
	ls, ok := e.streams[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("stream: unknown stream %q", name)
	}
	return ls, nil
}

// Update publishes a new snapshot of the named live state (cloned) and
// refreshes every subscription on it incrementally, fanning the refreshes
// out over at most RefreshWorkers goroutines. It returns one Refresh per
// subscription, ordered by subscription ID. Updates to the same stream
// serialize; a context cancellation mid-update leaves each subscription
// with its last completed answer.
//
// The tick is journaled before it is published: the record carries the
// state and what every refresh decided, and only once it is written do
// the answers reach Answer and Wait, so no client ever sees an answer
// the log lacks. A journal failure returns the error with every answer
// unpublished; the refreshes' maintenance state has moved on, but the
// journal's error is sticky, so recovery resumes from the last journaled
// tick.
func (e *Engine) Update(ctx context.Context, name string, st stochastic.State) ([]Refresh, error) {
	if st == nil {
		return nil, errors.New("stream: nil state")
	}
	ls, err := e.stream(name)
	if err != nil {
		return nil, err
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.state = st.Clone()
	ls.tick++
	e.ticks.Add(1)
	began := telemetry.Now()
	subs, out, done := e.refreshLocked(ctx, ls)
	var outcomes []Outcome
	for _, r := range done {
		if r.out != nil {
			outcomes = append(outcomes, *r.out)
		}
	}
	lsn, err := e.record(EvTicked{Name: name, State: st.Clone(), Outcomes: outcomes})
	if err != nil {
		return nil, fmt.Errorf("stream: journaling update of %q: %w", name, err)
	}
	if lsn > ls.lsn {
		ls.lsn = lsn
	}
	var topUp int64
	for i, r := range out {
		if done[i].publish {
			subs[i].store(r.Answer)
		}
		topUp += r.Answer.FreshRoots
	}
	e.cfg.Metrics.ObserveTick(telemetry.Since(began), int64(len(out)), topUp)
	return out, nil
}

// refreshLocked live-refreshes every subscription of ls against its
// current state, in ID order, returning the subscriptions, their
// refreshes and what each left to journal and publish. The caller holds
// ls.mu.
func (e *Engine) refreshLocked(ctx context.Context, ls *liveState) ([]*Subscription, []Refresh, []refreshed) {
	subs := ls.sorted()
	out := make([]Refresh, len(subs))
	done := make([]refreshed, len(subs))
	run := func(i int) {
		ans, r, err := subs[i].refresh(ctx, ls.proc, ls.state, ls.tick, nil)
		out[i], done[i] = Refresh{SubID: subs[i].id, Answer: ans, Err: err}, r
	}
	workers := e.cfg.RefreshWorkers
	if workers > len(subs) {
		workers = len(subs)
	}
	if workers <= 1 {
		for i := range subs {
			run(i)
		}
		return subs, out, done
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := range subs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return subs, out, done
}

// sorted lists the stream's subscriptions in ID order. The caller holds
// ls.mu.
func (ls *liveState) sorted() []*Subscription {
	subs := make([]*Subscription, 0, len(ls.subs))
	for _, sub := range ls.subs {
		subs = append(subs, sub)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
	return subs
}

// Subscribe registers a standing query against spec.Stream and computes
// its initial answer from the stream's current state (a cold start: the
// first refresh pays the plan search, unless the shared cache already
// holds a plan for the shape, and fills the root pool to the quality
// target). Later updates maintain the answer incrementally.
func (e *Engine) Subscribe(ctx context.Context, spec SubSpec) (*Subscription, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	return e.subscribe(ctx, spec, 0)
}

// SubscribeAssigned is Subscribe with a caller-assigned ID — the sharded
// path, where a wrapper owns one ID sequence across several engines so
// that consistent-hash placement and bit-for-bit parity with a single
// engine both hold.
// The registration is journaled like any live subscribe; the id must be
// unique across every engine sharing the sequence.
func (e *Engine) SubscribeAssigned(ctx context.Context, spec SubSpec, id uint64) (*Subscription, error) {
	if id == 0 {
		return nil, errors.New("stream: zero subscription id")
	}
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	e.adoptID(id)
	return e.subscribe(ctx, spec, id)
}

// adoptID keeps the internal sequence at or ahead of an assigned or
// replayed ID, so a later plain Subscribe on this engine cannot collide.
func (e *Engine) adoptID(id uint64) {
	for {
		cur := e.nextSub.Load()
		if cur >= id || e.nextSub.CompareAndSwap(cur, id) {
			return
		}
	}
}

// MaxSubID returns the highest subscription ID this engine has assigned
// or adopted (via SubscribeAssigned, Restore or replay). A sharded
// wrapper resumes its shared sequence from the max over its shards.
func (e *Engine) MaxSubID() uint64 { return e.nextSub.Load() }

// subscribe registers a defaulted spec; id == 0 assigns a fresh ID. The
// initial refresh runs live, and the registration is journaled with its
// outcome before the answer is published or the subscription becomes
// visible.
func (e *Engine) subscribe(ctx context.Context, spec SubSpec, id uint64) (*Subscription, error) {
	ls, err := e.stream(spec.Stream)
	if err != nil {
		return nil, err
	}
	if id == 0 {
		id = e.nextSub.Add(1)
	}
	sub := newSubscription(e, ls, spec, id)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ans, r, err := sub.refresh(ctx, ls.proc, ls.state, ls.tick, nil)
	if err != nil {
		return nil, err
	}
	// Journaled only on success: a crash mid-subscribe loses the
	// half-built registration (the client retries) rather than
	// recovering a subscription the client was never told about.
	ev := EvAdded{Spec: specState(spec), ID: id, Outcome: Outcome{ID: id}}
	if r.out != nil {
		ev.Outcome = *r.out
	}
	lsn, err := e.record(ev)
	if err != nil {
		return nil, fmt.Errorf("stream: journaling subscription: %w", err)
	}
	sub.store(ans)
	ls.subs[sub.id] = sub
	if lsn > ls.lsn {
		ls.lsn = lsn
	}
	return sub, nil
}

// newSubscription builds an unregistered subscription with no answer.
func newSubscription(e *Engine, ls *liveState, spec SubSpec, id uint64) *Subscription {
	return &Subscription{id: id, engine: e, ls: ls, spec: spec, notify: make(chan struct{})}
}

// EngineStats is a point-in-time snapshot of the engine.
type EngineStats struct {
	Streams       int
	Subscriptions int

	Ticks        int64 // state updates processed
	Refreshes    int64 // subscription refreshes performed
	FreshRoots   int64 // root trees simulated by refreshes
	FreshSteps   int64 // simulator invocations spent on fresh roots
	SearchSteps  int64 // simulator invocations spent on plan searches paid by refreshes
	Replans      int64 // refreshes that crossed a drift bucket and re-resolved their plan
	DroppedRoots int64 // root trees discarded by drift, age or replanning
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Ticks:        e.ticks.Load(),
		Refreshes:    e.refreshes.Load(),
		FreshRoots:   e.freshRoots.Load(),
		FreshSteps:   e.freshSteps.Load(),
		SearchSteps:  e.searchSteps.Load(),
		Replans:      e.replans.Load(),
		DroppedRoots: e.dropped.Load(),
	}
	e.mu.RLock()
	st.Streams = len(e.streams)
	streams := make([]*liveState, 0, len(e.streams))
	//durlint:ignore maporder the slice only feeds an order-insensitive sum of subscription counts
	for _, ls := range e.streams {
		streams = append(streams, ls)
	}
	e.mu.RUnlock()
	for _, ls := range streams {
		ls.mu.Lock()
		st.Subscriptions += len(ls.subs)
		ls.mu.Unlock()
	}
	return st
}
