package stream

import (
	"context"
	"errors"
	"fmt"
	"math"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
	"sync"
)

// ErrSubscriptionClosed reports use of a closed subscription.
var ErrSubscriptionClosed = errors.New("stream: subscription closed")

// SubSpec describes one standing durability query: the probability that
// Obs(state) >= Beta at any time within Horizon steps of the live state
// it is registered against.
type SubSpec struct {
	Stream     string              // live state the query stands against
	Obs        stochastic.Observer // quantity thresholded
	ObserverID string              // observer identity for plan caching
	Beta       float64             // threshold
	Horizon    int                 // sliding horizon, in steps from "now"

	Ratio      int    // splitting ratio (default 3)
	Seed       uint64 // base random seed (default 1)
	SimWorkers int    // parallel simulation workers per refresh (default 1)

	// DriftTol and MaxAge override the engine's survival tolerance and
	// age cap for this subscription (0 keeps the engine default). They
	// are the staleness/cost dial: a wider tolerance keeps root paths
	// alive longer and makes ticks cheaper, but lets the answer lag a
	// faster-moving state further.
	DriftTol float64
	MaxAge   int64

	// Stop is the quality target each maintained answer is restored to —
	// typically a relative-error or CI-width rule, optionally alongside a
	// Budget bounding the root pool. Default: 10% relative error.
	Stop mc.Any
}

// driftTol resolves the subscription's survival tolerance.
func (s SubSpec) driftTol(cfg Config) float64 {
	if s.DriftTol > 0 {
		return s.DriftTol
	}
	return cfg.DriftTol
}

// maxAge resolves the subscription's batch age cap.
func (s SubSpec) maxAge(cfg Config) int64 {
	if s.MaxAge > 0 {
		return s.MaxAge
	}
	return cfg.MaxAgeTicks
}

func (s SubSpec) withDefaults() (SubSpec, error) {
	if s.Stream == "" {
		return s, errors.New("stream: subscription names no stream")
	}
	if s.Obs == nil {
		return s, errors.New("stream: subscription has no observer")
	}
	if s.Beta <= 0 {
		return s, fmt.Errorf("stream: threshold %v must be positive", s.Beta)
	}
	if s.Horizon <= 0 {
		return s, fmt.Errorf("stream: horizon %d must be positive", s.Horizon)
	}
	if s.Ratio <= 0 {
		s.Ratio = 3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.SimWorkers <= 0 {
		s.SimWorkers = 1
	}
	if len(s.Stop) == 0 {
		s.Stop = mc.Any{mc.RETarget{Target: 0.10}}
	}
	return s, nil
}

// Answer is one maintained answer to a standing query, together with the
// accounting of what its refresh cost.
type Answer struct {
	// Result is the estimate over the current root pool. Paths and Steps
	// describe the whole surviving pool (the cost embodied in the
	// answer), not this refresh. Result carries no wall time: refresh
	// durations live in the engine's telemetry (Config.Metrics), never on
	// the answer, so checkpointed state is deterministic by construction.
	Result mc.Result
	// Tick is the stream tick the answer corresponds to.
	Tick int64
	// Satisfied reports that the condition holds at the live state right
	// now, making the answer trivially 1 with no sampling.
	Satisfied bool

	// Per-refresh maintenance cost: fresh root trees simulated, their
	// simulator invocations, and any plan-search invocations paid.
	FreshRoots  int64
	FreshSteps  int64
	SearchSteps int64

	// Pool movement: SurvivedRoots are roots carried over from previous
	// ticks that still contribute to this answer; DroppedRoots were
	// deleted by age; PoolRoots is the whole retained pool, including
	// dormant roots kept for revival if the state drifts back to them.
	SurvivedRoots int64
	DroppedRoots  int64
	PoolRoots     int64

	// Plan handling: Replanned marks a drift-bucket crossing that
	// re-resolved the plan; PlanCached marks the resolution coming from
	// the shared plan cache rather than a fresh search.
	Replanned  bool
	PlanCached bool

	// Capped reports the refresh hit MaxRefreshSteps before restoring
	// the quality target — the answer is the best available, below
	// target.
	Capped bool
}

// P returns the maintained point estimate.
func (a Answer) P() float64 { return a.Result.P }

// Refresh is the outcome of maintaining one subscription on one update.
type Refresh struct {
	SubID  uint64
	Answer Answer
	Err    error
}

// batch is the unit of root survival: the g-MLSS sufficient statistics
// of a small set of root trees simulated from one snapshot of the live
// state, with their per-root moments for variance estimation. A batch
// contributes to the answer while it is "active" — simulated under
// the current plan, from the current start level, with a start value
// within the drift tolerance of the live state. An inactive batch stays
// in the pool dormant and revives when the state drifts back into its
// neighborhood (the revisit case); only age deletes it.
type batch struct {
	tick      int64     // tick the roots were simulated at
	f0        float64   // normalized start value z/beta at simulation time
	initLevel int       // start level under the plan at simulation time
	plan      core.Plan // the plan the trees were split under
	roots     int64
	steps     int64
	agg       core.Counters
	moments   core.Moments

	// active marks the batch as contributing to the latest answer. It is
	// in-memory telemetry bookkeeping only (revival detection) and is
	// deliberately absent from the persisted BatchState: restored batches
	// start dormant and the first refresh recomputes contribution.
	active bool
}

// SubStats is lifetime cost accounting for one subscription.
type SubStats struct {
	Refreshes   int64 // refreshes performed (including the initial one)
	FreshRoots  int64 // root trees simulated
	FreshSteps  int64 // simulator invocations spent on fresh roots
	SearchSteps int64 // plan-search invocations paid by this subscription
	Replans     int64 // drift-bucket crossings that re-resolved the plan
}

// Subscription is one registered standing query. Its answer is refreshed
// by the engine on every update of the stream it stands against; readers
// poll Answer or block on Wait.
type Subscription struct {
	id     uint64
	engine *Engine
	ls     *liveState
	spec   SubSpec

	// Maintenance state, touched only while holding ls.mu (refreshes of
	// one stream are serialized by the engine).
	havePlan  bool
	plan      core.Plan
	bucket    int // drift bucket the plan was resolved for
	batches   []*batch
	nextRoot  int64        // next root index; strictly increasing so substreams never repeat
	destroyed bool         // removed from ls.subs
	evalMom   core.Moments // evaluate's scratch, reused across calls

	// Published state, guarded by mu so readers never contend with a
	// running refresh.
	mu     sync.Mutex
	answer Answer
	notify chan struct{} // closed and replaced on every stored answer
	closed bool
	stats  SubStats
}

// ID returns the subscription's engine-unique identifier.
func (s *Subscription) ID() uint64 { return s.id }

// Stream returns the name of the live state the query stands against.
func (s *Subscription) Stream() string { return s.ls.name }

// Spec returns the subscription's (defaulted) specification.
func (s *Subscription) Spec() SubSpec { return s.spec }

// Answer returns the latest maintained answer.
func (s *Subscription) Answer() Answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.answer
}

// Stats returns the subscription's lifetime cost accounting.
func (s *Subscription) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// PlanInfo is a point-in-time view of a subscription's resolved plan for
// introspection front ends (the per-subscription detail of GET /streams).
type PlanInfo struct {
	Bucket     int       // drift bucket the plan was resolved for
	Boundaries []float64 // the plan's interior level boundaries
	Ratios     []int     // per-level ratios (nil for uniform-ratio plans)
	// Key is the plan-cache key the plan — and its crossing-statistics
	// ledger entry — lives under; HaveKey is false when the engine's
	// runner has no cache (every refresh then pays its own search and
	// nothing is booked).
	Key     serve.PlanKey
	HaveKey bool
}

// PlanInfo returns the subscription's current plan view; ok is false
// while no refresh has resolved a plan yet (or after destruction).
func (s *Subscription) PlanInfo() (PlanInfo, bool) {
	s.ls.mu.Lock()
	defer s.ls.mu.Unlock()
	if !s.havePlan || s.destroyed {
		return PlanInfo{}, false
	}
	info := PlanInfo{
		Bucket:     s.bucket,
		Boundaries: append([]float64(nil), s.plan.Boundaries...),
		Ratios:     append([]int(nil), s.plan.Ratios...),
	}
	info.Key, info.HaveKey = s.engine.runner.PlanKeyFor(s.keySpec())
	return info, true
}

// keySpec builds the minimal spec whose plan key matches the one refresh
// resolves plans under — the key depends only on identity fields, never
// on the live state itself. The caller holds ls.mu.
func (s *Subscription) keySpec() serve.Spec {
	return serve.Spec{
		ModelID:     s.ls.name,
		ObserverID:  s.spec.ObserverID,
		Beta:        s.spec.Beta,
		Horizon:     s.spec.Horizon,
		Method:      serve.GMLSS,
		PlanMode:    serve.PlanAuto,
		Ratio:       s.spec.Ratio,
		StartBucket: 1 + s.bucket,
	}
}

// Wait blocks until the maintained answer corresponds to a tick later
// than since, then returns it — the long-poll primitive network front
// ends build on. It returns early with the context's error on
// cancellation, or ErrSubscriptionClosed once the subscription closes.
func (s *Subscription) Wait(ctx context.Context, since int64) (Answer, error) {
	s.mu.Lock()
	for {
		if s.answer.Tick > since {
			ans := s.answer
			s.mu.Unlock()
			return ans, nil
		}
		if s.closed {
			s.mu.Unlock()
			return Answer{}, ErrSubscriptionClosed
		}
		ch := s.notify
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return Answer{}, ctx.Err()
		}
		s.mu.Lock()
	}
}

// Publish is the single-subscriber convenience for Engine.Update: it
// publishes a new snapshot of the subscription's stream (refreshing every
// subscription on it) and returns this subscription's refreshed answer.
func (s *Subscription) Publish(ctx context.Context, st stochastic.State) (Answer, error) {
	refreshes, err := s.engine.Update(ctx, s.ls.name, st)
	if err != nil {
		return Answer{}, err
	}
	for _, r := range refreshes {
		if r.SubID == s.id {
			return r.Answer, r.Err
		}
	}
	return Answer{}, ErrSubscriptionClosed
}

// Close deregisters the subscription, releases its root pool and wakes
// any Wait callers. It is idempotent.
func (s *Subscription) Close() {
	s.ls.mu.Lock()
	if !s.destroyed {
		s.destroyed = true
		delete(s.ls.subs, s.id)
		s.batches = nil
		// A journal failure cannot abort a close (Close returns nothing);
		// the store keeps the error sticky and the next checkpoint — which
		// captures the subscription's absence — surfaces it.
		if lsn, err := s.engine.record(EvClosed{ID: s.id}); err == nil && lsn > s.ls.lsn {
			s.ls.lsn = lsn
		}
	}
	s.ls.mu.Unlock()

	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.notify)
	}
	s.mu.Unlock()
}

// forceReplan drops the plan and the root pool; the caller holds ls.mu.
// It is the invalidation hook Register uses when a stream's dynamics are
// replaced: plans and counters simulated under the old process must not
// leak into answers under the new one.
func (s *Subscription) forceReplan() {
	s.havePlan = false
	s.batches = nil
}

// store publishes a refreshed answer and updates the lifetime counters.
func (s *Subscription) store(ans Answer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.answer = ans
	s.stats.Refreshes++
	s.stats.FreshRoots += ans.FreshRoots
	s.stats.FreshSteps += ans.FreshSteps
	s.stats.SearchSteps += ans.SearchSteps
	if ans.Replanned {
		s.stats.Replans++
	}
	close(s.notify)
	s.notify = make(chan struct{})
}

// refreshed is what one refresh hands back to the caller that journals
// and publishes it.
type refreshed struct {
	// out is the live mode's outcome: what the journal must carry so
	// replay reaches the same state (nil when the refresh decided
	// nothing worth recording).
	out *Outcome
	// publish is false only when plan resolution failed: the
	// subscription keeps its previous answer and nothing is stored.
	publish bool
}

// decided reports whether the outcome records anything replay must
// install. A nil outcome decided nothing.
func (o *Outcome) decided() bool {
	return o != nil && (o.Plan != nil || o.Batches != nil || o.End != nil)
}

// refresh maintains the answer against a new snapshot of the live state.
// The caller holds ls.mu, which serializes refreshes per stream; proc and
// state are the stream's current dynamics and snapshot, tick its clock.
// The caller publishes the returned answer (store) once the outcome is
// journaled.
//
// The maintenance sequence is: resolve the plan (re-searching only when
// the normalized start value crossed a drift-bucket boundary, and then
// usually hitting the shared plan cache), expire aged batches, select
// the surviving batches still within drift tolerance of the new state,
// and top up with fresh root trees from the new state until the quality
// target holds again.
//
// rec selects the mode. With rec nil the refresh is live: it resolves the
// plan, runs the top-up loop and captures both in the returned outcome.
// With rec non-nil it replays a journaled outcome: the recorded plan and
// batches are installed in the same order and the answer is evaluated
// once over the same active batches, so answers, SubStats and engine
// counters equal the live ones — without a search or a simulation. The
// plan-independent steps (expiry, survival, revival, booking, evaluate)
// are shared by both modes.
func (s *Subscription) refresh(ctx context.Context, proc stochastic.Process, state stochastic.State, tick int64, rec *Outcome) (Answer, refreshed, error) {
	e := s.engine
	cfg := e.cfg
	began := telemetry.Now()
	ans := Answer{Tick: tick}
	defer e.refreshes.Add(1)
	// out is the live refresh's outcome, allocated only once it decides
	// something: a tick's journal record grows with the subscriptions
	// that changed, not with all of them.
	var out *Outcome

	value := core.ThresholdValue(s.spec.Obs, s.spec.Beta)
	f0 := s.spec.Obs(state) / s.spec.Beta
	if f0 >= 1 {
		// The condition holds at the live state itself: the answer is 1
		// with certainty and no simulation. The pool is left in place —
		// if the state recedes below the threshold, surviving batches
		// resume contributing (age and drift pruning still apply).
		if rec.decided() {
			return s.Answer(), refreshed{}, fmt.Errorf("%w: subscription %d records decisions at a state that satisfies its query", errDiverged, s.id)
		}
		ans.Satisfied = true
		ans.Result = mc.Result{P: 1}
		cfg.Metrics.ObserveRefresh(telemetry.Since(began), 0, 0)
		return ans, refreshed{publish: true}, nil
	}

	bucket := int(math.Floor(math.Max(f0, 0) / cfg.StartBucketWidth))
	sspec := serve.Spec{
		Proc:       stochastic.Pin(proc, state),
		Obs:        s.spec.Obs,
		ModelID:    s.ls.name,
		ObserverID: s.spec.ObserverID,
		Beta:       s.spec.Beta,
		Horizon:    s.spec.Horizon,
		Method:     serve.GMLSS,
		PlanMode:   serve.PlanAuto,
		Ratio:      s.spec.Ratio,
		Seed:       s.spec.Seed,
		SimWorkers: s.spec.SimWorkers,
		// Offset by one so standing-query keys can never alias the
		// constant StartBucket 0 of point-in-time queries, whose plans
		// are searched from the model's canonical initial state. f0 is
		// clamped at 0 above, so the offset bucket is always >= 1.
		StartBucket: 1 + bucket,
		Stop:        s.spec.Stop,
	}
	if !s.havePlan || bucket != s.bucket {
		var po PlanOutcome
		if rec == nil {
			plan, meta, err := e.runner.ResolvePlan(ctx, &sspec)
			po = PlanOutcome{Plan: plan, SearchSteps: meta.SearchSteps, CacheHit: meta.CacheHit}
			if err != nil {
				po.Err = err.Error()
			}
			out = &Outcome{ID: s.id, Plan: &po}
		} else {
			if rec.Plan == nil {
				return s.Answer(), refreshed{}, fmt.Errorf("%w: subscription %d crossed into drift bucket %d, but its outcome records no plan", errDiverged, s.id, bucket)
			}
			po = *rec.Plan
			if po.Err == "" {
				// Keep the primary's cache: a promoted standby then hits
				// where the primary would have.
				if key, ok := e.runner.PlanKeyFor(sspec); ok {
					e.runner.Cache.Warm(key, po.Plan)
				}
			}
		}
		ans.SearchSteps = po.SearchSteps
		e.searchSteps.Add(po.SearchSteps)
		if po.Err != "" {
			// Keep the previous plan and answer; the next update retries.
			return s.Answer(), refreshed{out: out}, fmt.Errorf("stream: resolving plan: %s", po.Err)
		}
		ans.Replanned = s.havePlan
		ans.PlanCached = po.CacheHit
		if s.havePlan {
			e.replans.Add(1)
		}
		s.plan, s.bucket, s.havePlan = po.Plan, bucket, true
	} else if rec != nil && rec.Plan != nil {
		return s.Answer(), refreshed{}, fmt.Errorf("%w: subscription %d records a plan resolution its drift bucket %d does not call for", errDiverged, s.id, bucket)
	}
	m := s.plan.M()
	initLevel := s.plan.LevelOf(value(state, 0))

	// Age pruning bounds the pool; everything else is kept, dormant
	// batches included, so a revisit finds its roots alive.
	s.expire(tick, &ans)

	// Survival: a batch contributes to this answer when its trees were
	// split under the current plan, start from the current level, and its
	// start value is within the drift tolerance of the new state.
	tol := s.spec.driftTol(cfg)
	var revived int64
	active := make([]*batch, 0, len(s.batches)+1)
	for _, b := range s.batches {
		ans.PoolRoots += b.roots
		contributing := b.initLevel == initLevel && math.Abs(b.f0-f0) <= tol && b.plan.Equal(s.plan)
		if contributing {
			active = append(active, b)
			ans.SurvivedRoots += b.roots
			if !b.active {
				// A dormant batch the state drifted back to — the revisit
				// case the pool retains dormant batches for.
				revived++
			}
		}
		b.active = contributing
	}

	// fresh accumulates this refresh's top-up counters, in batch order,
	// for the plan-quality ledger booking below.
	fresh := core.NewCounters(m)
	// keep adds one fresh batch to the pool and the answer's accounting.
	keep := func(bo BatchOutcome) *batch {
		b := &batch{
			tick: tick, f0: f0, initLevel: initLevel, plan: s.plan,
			roots: bo.Roots, steps: bo.Steps, agg: bo.Agg, moments: bo.Moments,
			active: true,
		}
		ans.FreshRoots += b.roots
		ans.FreshSteps += b.steps
		ans.PoolRoots += b.roots
		e.freshRoots.Add(b.roots)
		e.freshSteps.Add(b.steps)
		s.batches = append(s.batches, b)
		fresh.Add(b.agg)
		return b
	}
	var res mc.Result
	var err error
	if rec != nil {
		for _, bo := range rec.Batches {
			s.nextRoot += int64(cfg.TopUpRoots)
			active = append(active, keep(bo))
		}
		if end := rec.End; end != nil {
			s.nextRoot, ans.Capped = end.NextRoot, end.Capped
			if end.Err != "" {
				err = errors.New(end.Err)
			}
		}
		res = s.evaluate(active, m, initLevel)
	} else {
		// Top up with fresh root trees from the new state until the
		// quality target is restored. The fresh simulation runs through
		// the engine's execution backend: in-process by default, or
		// sharded across a worker fleet — the backend's determinism
		// invariant (root i draws from substream i regardless of
		// placement) keeps the maintained answer identical either way.
		task := exec.Task{
			Proc:       proc,
			Obs:        s.spec.Obs,
			Model:      s.ls.modelID,
			Observer:   s.spec.ObserverID,
			Start:      state,
			Beta:       s.spec.Beta,
			Horizon:    s.spec.Horizon,
			Boundaries: s.plan.Boundaries,
			Ratio:      s.spec.Ratio,
			Seed:       s.spec.Seed,
			SimWorkers: s.spec.SimWorkers,
		}
		var batches []BatchOutcome
		res = s.evaluate(active, m, initLevel)
		for !s.spec.Stop.Done(res) {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
				ans.Capped = true
				break
			}
			if ans.FreshSteps >= cfg.MaxRefreshSteps {
				ans.Capped = true
				break
			}
			lo, hi := s.nextRoot, s.nextRoot+int64(cfg.TopUpRoots)
			shard, serr := cfg.Exec.RunRoots(ctx, task, lo, hi, 1)
			if serr != nil {
				err = serr
				ans.Capped = true
				break
			}
			s.nextRoot = hi
			// The shard's aggregate and units are carved from one backing
			// array; the batch copies what it keeps, so the array is freed.
			bo := BatchOutcome{Roots: shard.Roots, Steps: shard.Steps, Agg: core.NewCounters(m), Moments: core.NewMoments(m, initLevel)}
			bo.Agg.Add(shard.Agg)
			for _, u := range shard.Groups {
				bo.Moments.Add(u)
			}
			// Batches are immutable once kept, so the outcome shares them.
			batches = append(batches, bo)
			active = append(active, keep(bo))
			res = s.evaluate(active, m, initLevel)
		}
		if batches != nil || ans.Capped {
			if out == nil {
				out = &Outcome{ID: s.id}
			}
			out.Batches = batches
			if ans.Capped {
				out.End = &EndOutcome{NextRoot: s.nextRoot, Capped: true}
				if err != nil {
					out.End.Err = err.Error()
				}
			}
		}
	}
	if err == nil && ans.FreshRoots > 0 {
		// Book the refresh's fresh counters under the standing query's
		// plan key. Error paths are excluded (a cancellation is not
		// deterministic); a deterministic budget cap still books.
		e.runner.BookRun(sspec, s.plan, fresh, ans.FreshRoots, ans.FreshSteps)
	}
	ans.Result = res
	cfg.Metrics.ObserveRefresh(telemetry.Since(began), ans.FreshSteps, revived)
	return ans, refreshed{out: out, publish: true}, err
}

// expire deletes batches older than MaxAgeTicks, booking their roots into
// the answer's drop accounting. The caller holds ls.mu.
func (s *Subscription) expire(tick int64, ans *Answer) {
	maxAge := s.spec.maxAge(s.engine.cfg)
	kept := s.batches[:0]
	for _, b := range s.batches {
		if tick-b.tick > maxAge {
			ans.DroppedRoots += b.roots
			s.engine.dropped.Add(b.roots)
			continue
		}
		kept = append(kept, b)
	}
	// Zero the tail so dropped batches are collectable.
	for i := len(kept); i < len(s.batches); i++ {
		s.batches[i] = nil
	}
	s.batches = kept
}

// evaluate computes the merged estimate and delta-method variance over
// the active batches, merging their moments in pool order. The caller
// holds ls.mu.
func (s *Subscription) evaluate(active []*batch, m, initLevel int) mc.Result {
	agg := core.NewCounters(m)
	s.evalMom.Reset(m, initLevel)
	var roots, steps int64
	for _, b := range active {
		agg.Add(b.agg)
		s.evalMom.Merge(&b.moments)
		roots += b.roots
		steps += b.steps
	}
	res := mc.Result{Paths: roots, Steps: steps, Hits: int64(agg.Hits)}
	if roots == 0 {
		res.Variance = math.Inf(1)
		return res
	}
	res.P = core.EstimateFromCounters(agg, roots, m, initLevel)
	res.Variance = s.evalMom.Variance(m)
	return res
}
