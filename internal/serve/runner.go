package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/opt"
	"durability/internal/planstats"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

// Method selects the sampling algorithm, mirroring the public API's enum.
type Method int

// Available methods.
const (
	GMLSS Method = iota
	SMLSS
	SRS
)

func (m Method) String() string {
	switch m {
	case GMLSS:
		return "g-mlss"
	case SMLSS:
		return "s-mlss"
	case SRS:
		return "srs"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// PlanMode selects how an MLSS query obtains its level partition.
type PlanMode int

// Plan modes.
const (
	// PlanAuto runs (or reuses) the adaptive greedy search of §5.2.
	PlanAuto PlanMode = iota
	// PlanFixed uses Spec.Plan verbatim; the cache is bypassed.
	PlanFixed
	// PlanBalanced runs (or reuses) the balanced-growth construction of
	// §5.1 from the prior BalTau with BalLevels levels.
	PlanBalanced
)

// Spec is one fully resolved query: the model, the observable, the
// threshold query itself and every execution knob. ModelID and ObserverID
// identify the model/observer pair for plan caching; they never influence
// the numerics.
type Spec struct {
	Proc       stochastic.Process
	Obs        stochastic.Observer
	ModelID    string
	ObserverID string

	Beta    float64
	Horizon int

	Method     Method
	PlanMode   PlanMode
	Plan       core.Plan // used when PlanMode == PlanFixed
	BalTau     float64
	BalLevels  int
	Ratio      int
	Seed       uint64
	SimWorkers int // ceiling on the kernels one round of this query steps at once (<= 0: GOMAXPROCS)

	// StartBucket is the drift bucket of the start state for plan keying.
	// Queries answered from a model's canonical initial state leave it 0;
	// standing queries maintained against a live state (internal/stream)
	// bucket the normalized start value, so a level plan is re-searched
	// only when the live state drifts across a bucket boundary — and
	// returning to a previously visited bucket reuses its plan for free.
	StartBucket int

	Stop  mc.Any // stopping rules; at least one required
	Trace func(mc.Result)
}

func (s *Spec) validate() error {
	if s.Proc == nil {
		return errors.New("serve: spec has no process")
	}
	if s.Obs == nil {
		return errors.New("serve: spec has no observer")
	}
	if s.Beta <= 0 {
		return fmt.Errorf("serve: threshold %v must be positive", s.Beta)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("serve: horizon %d must be positive", s.Horizon)
	}
	if s.Ratio < 1 {
		return fmt.Errorf("serve: splitting ratio %d must be >= 1", s.Ratio)
	}
	if len(s.Stop) == 0 {
		return errors.New("serve: spec has no stopping rule")
	}
	return nil
}

// Meta reports how a query was executed, beyond the estimate itself.
type Meta struct {
	Plan        core.Plan // the partition plan the sampler ran with (empty for SRS)
	SearchSteps int64     // simulator invocations this call spent on level search
	CacheHit    bool      // true when the plan came from the cache
}

// Runner executes query specs. With a Cache, plan searches are memoized
// and deduplicated across queries; with Cache == nil every query pays its
// own search, which is exactly the per-query behavior of durability.Run.
type Runner struct {
	Cache *PlanCache

	// Exec is the execution backend g-MLSS root paths are simulated on:
	// in-process for exec.Local (what a nil Exec means), a worker fleet
	// for exec.Cluster. One-shot queries run core's estimator loop over
	// it (exec.Sample), so a query's answer is bit-for-bit the same on
	// every backend. Plan searches always run locally, and s-MLSS and
	// SRS queries — whose estimators are not expressed as mergeable root
	// counters — stay on the in-process samplers regardless.
	Exec exec.Executor

	// Trace, when non-nil, receives lifecycle spans: plan-cache /
	// plan-search around plan resolution and exec around sampling, with
	// step counts attributed so each stage's steps sum exactly to the
	// serving totals. Telemetry only — spans never alter execution.
	Trace *telemetry.Tracer

	// Ledger, when non-nil, receives every finished g-MLSS run's crossing
	// counters under the run's plan-cache key — the plan-quality
	// observability feed. Runs without a key (no Cache, or PlanFixed) and
	// the non-counter samplers (s-MLSS, SRS) book nothing. Observability
	// only — the ledger never alters execution.
	Ledger *planstats.Ledger
}

// StatsKey mirrors a plan-cache key into the ledger's key type, field
// for field (planstats sits below serve in the import order, so it
// restates the key rather than importing it).
func StatsKey(key PlanKey) planstats.Key {
	return planstats.Key{
		Model:      key.Model,
		Observer:   key.Observer,
		BetaBucket: key.BetaBucket,
		Horizon:    key.Horizon,
		Ratio:      key.Ratio,
		Search:     key.Search,
		Start:      key.Start,
		Set:        key.Set,
	}
}

// bookRun returns the ledger booking callback for one run executed under
// key with the given plan shape, or nil when the runner has no ledger.
// The signature matches both core.GMLSS.Observe and
// exec.SampleOptions.Counters, so one-shot and batch runs book through
// one function.
func (r *Runner) bookRun(key PlanKey, plan core.Plan, ratio int) func(agg core.Counters, roots, steps int64) {
	if r.Ledger == nil {
		return nil
	}
	k := StatsKey(key)
	shape := planstats.Shape{
		Boundaries: append([]float64(nil), plan.Boundaries...),
		Ratio:      ratio,
		Ratios:     append([]int(nil), plan.Ratios...),
	}
	ledger := r.Ledger
	return func(agg core.Counters, roots, steps int64) {
		ledger.Book(k, shape, planstats.Delta{
			Land:  agg.Land,
			Skip:  agg.Skip,
			Mu:    agg.Mu,
			Hits:  agg.Hits,
			Roots: roots,
			Steps: steps,
		})
	}
}

// BookRun books one finished g-MLSS run's counters into the runner's
// ledger under the spec's plan key — the hook callers that sample
// incrementally themselves (internal/stream) invoke after folding their
// own shard results in root order. A runner without a ledger or a cache,
// or a spec under a fixed plan (no key exists), books nothing.
func (r *Runner) BookRun(s Spec, plan core.Plan, agg core.Counters, roots, steps int64) {
	if r.Ledger == nil || r.Cache == nil || s.PlanMode == PlanFixed {
		return
	}
	if hook := r.bookRun(s.planKey(r.Cache), plan, s.Ratio); hook != nil {
		hook(agg, roots, steps)
	}
}

// searchTag names the plan-search strategy for cache keying, so greedy and
// balanced plans for the same query shape never alias.
func (s *Spec) searchTag() string {
	if s.PlanMode == PlanBalanced {
		return fmt.Sprintf("balanced(%g,%d)", s.BalTau, s.BalLevels)
	}
	return "greedy"
}

// planSeed derives the level-search seed from the cache key, so a cached
// plan is a pure function of the query shape — not of the seed (or
// scheduling luck) of whichever query triggered the search.
func planSeed(key PlanKey) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d\x00%s\x00%d\x00%s", key.Model, key.Observer, key.BetaBucket, key.Horizon, key.Ratio, key.Search, key.Start, key.Set)
	seed := h.Sum64()
	if seed == 0 {
		seed = 1
	}
	return seed
}

// searchFunc builds the level search for the spec at the given threshold
// and seed.
func (s *Spec) searchFunc(beta float64, seed uint64) SearchFunc {
	return func(ctx context.Context) (core.Plan, int64, error) {
		problem := &opt.Problem{
			Proc:    s.Proc,
			Query:   core.Query{Value: core.ThresholdValue(s.Obs, beta), Horizon: s.Horizon},
			Ratio:   s.Ratio,
			Seed:    seed,
			Workers: s.SimWorkers,
		}
		if s.PlanMode == PlanBalanced {
			return opt.BalancedPlan(ctx, problem, s.BalTau, s.BalLevels, 500)
		}
		g, err := opt.Greedy(ctx, problem, opt.GreedyOptions{})
		if err != nil {
			return core.Plan{}, g.SearchSteps, err
		}
		return g.Plan, g.SearchSteps, nil
	}
}

// ResolvePlan obtains the level partition for an MLSS query, through the
// cache when one is configured. Cached searches run at the bucket's
// representative threshold with a key-derived seed; uncached searches run
// at the query's own threshold and seed, reproducing Run's per-query
// behavior exactly. It is exported for callers that sample incrementally
// themselves (internal/stream) but still want plan memoization.
func (r *Runner) ResolvePlan(ctx context.Context, s *Spec) (core.Plan, Meta, error) {
	if s.PlanMode == PlanFixed {
		return s.Plan, Meta{Plan: s.Plan}, nil
	}
	if r.Cache == nil {
		sp := r.Trace.Start(telemetry.StagePlanSearch)
		plan, steps, err := s.searchFunc(s.Beta, s.Seed)(ctx)
		sp.AddSteps(steps)
		sp.End()
		if err != nil {
			return core.Plan{}, Meta{SearchSteps: steps}, err
		}
		return plan, Meta{Plan: plan, SearchSteps: steps}, nil
	}
	key := s.planKey(r.Cache)
	began := telemetry.Now()
	plan, steps, hit, err := r.Cache.GetOrSearch(ctx, key, s.searchFunc(r.Cache.RepresentativeBeta(s.Beta), planSeed(key)))
	// Exactly the searching caller carries steps > 0 (hits and waiters get
	// 0), so stage steps sum to the cache's SearchSteps with no double
	// counting; a hit or a coalesced wait books a plan-cache span instead.
	stage := telemetry.StagePlanSearch
	if steps == 0 {
		stage = telemetry.StagePlanCache
	}
	r.Trace.Observe(stage, telemetry.Since(began), steps)
	if err != nil {
		return core.Plan{}, Meta{SearchSteps: steps}, err
	}
	return plan, Meta{Plan: plan, SearchSteps: steps, CacheHit: hit}, nil
}

// planKey assembles the spec's cache key.
func (s *Spec) planKey(c *PlanCache) PlanKey {
	return c.Key(s.ModelID, s.ObserverID, s.Beta, s.Horizon, s.Ratio, s.searchTag(), s.StartBucket)
}

// PlanKeyFor reports the cache key the spec's plan resolves under —
// the key its ledger entry lives at. ok is false when the runner has no
// cache or the spec fixes its plan (no key exists).
func (r *Runner) PlanKeyFor(s Spec) (PlanKey, bool) {
	if r.Cache == nil || s.PlanMode == PlanFixed {
		return PlanKey{}, false
	}
	return s.planKey(r.Cache), true
}

// PeekPlan reports the cached plan that would serve the spec's shape, if
// the runner has a cache and the plan is resident.
func (r *Runner) PeekPlan(s Spec) (core.Plan, bool) {
	if r.Cache == nil || s.PlanMode == PlanFixed {
		return core.Plan{}, false
	}
	return r.Cache.Peek(s.planKey(r.Cache))
}

// Run answers one query. The result's Steps include the level-search cost
// only when this call actually performed the search; cache hits report the
// sampling cost alone, so summing Steps over a workload measures the total
// simulation actually performed.
func (r *Runner) Run(ctx context.Context, s Spec) (mc.Result, Meta, error) {
	if err := s.validate(); err != nil {
		return mc.Result{}, Meta{}, err
	}
	if s.Method == SRS {
		srs := &mc.SRS{
			Proc:    s.Proc,
			Query:   mc.Query{Cond: mc.Threshold(s.Obs, s.Beta), Horizon: s.Horizon},
			Stop:    s.Stop,
			Seed:    s.Seed,
			Workers: s.SimWorkers,
			Trace:   s.Trace,
		}
		sp := r.Trace.Start(telemetry.StageExec)
		res, err := srs.Run(ctx)
		sp.AddSteps(res.Steps)
		sp.End()
		return res, Meta{}, err
	}

	plan, meta, err := r.ResolvePlan(ctx, &s)
	if err != nil {
		return mc.Result{Steps: meta.SearchSteps}, meta, err
	}

	// The exec span carries the sampler's own steps — res.Steps before the
	// search bill is folded in below — so stage steps sum exactly to the
	// server's sampleSteps counter, which books the same difference.
	sp := r.Trace.Start(telemetry.StageExec)
	var res mc.Result
	if s.Method == SMLSS {
		cq := core.Query{Value: core.ThresholdValue(s.Obs, s.Beta), Horizon: s.Horizon}
		sampler := &core.SMLSS{
			Proc: s.Proc, Query: cq, Plan: plan, Ratio: s.Ratio,
			Stop: s.Stop, Seed: s.Seed, Workers: s.SimWorkers, Trace: s.Trace,
		}
		res, err = sampler.Run(ctx)
	} else {
		// The ledger hook (nil without a ledger) fires once at a successful
		// return; s-MLSS keeps different sufficient statistics and is not
		// booked. Fixed plans have no cache key, so their runs are not
		// attributable to a cached plan and book nothing.
		var book func(agg core.Counters, roots, steps int64)
		if r.Cache != nil && s.PlanMode != PlanFixed {
			book = r.bookRun(s.planKey(r.Cache), plan, s.Ratio)
		}
		res, err = exec.Sample(ctx, r.Exec, exec.Task{
			Proc:       s.Proc,
			Obs:        s.Obs,
			Model:      s.ModelID,
			Observer:   s.ObserverID,
			Beta:       s.Beta,
			Horizon:    s.Horizon,
			Boundaries: plan.Boundaries,
			Ratio:      s.Ratio,
			Seed:       s.Seed,
			SimWorkers: s.SimWorkers,
		}, exec.SampleOptions{Stop: s.Stop, Trace: s.Trace, Counters: book})
	}
	sp.AddSteps(res.Steps)
	sp.End()
	res.Steps += meta.SearchSteps // search cost is part of this query's bill
	return res, meta, err
}
