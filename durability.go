// Package durability answers durability prediction queries over step-wise
// simulation models, implementing the SIGMOD 2021 paper "Efficiently
// Answering Durability Prediction Queries" (Gao, Xu, Agarwal, Yang).
//
// A durability prediction query asks: given a stochastic process with a
// step-by-step simulator, what is the probability that a condition of
// interest holds at any time within a horizon? ("What is the chance this
// insurance product goes 300 units into profit within 500 days?") The
// package provides the standard Monte-Carlo baseline (simple random
// sampling) and the paper's contribution, Multi-Level Splitting Sampling
// (MLSS), which answers rare-event queries up to an order of magnitude
// faster at the same statistical quality — with automatic level design so
// no manual tuning is required.
//
// Minimal use:
//
//	q := durability.Query{Z: durability.Queue2Len, Beta: 26, Horizon: 500}
//	res, err := durability.Run(ctx, durability.NewTandemQueue(0.5, 2, 2), q,
//	    durability.WithRelativeErrorTarget(0.1),
//	)
//	fmt.Println(res.P, res.CI(0.95))
//
// By default Run uses g-MLSS (correct even for processes whose value can
// jump across several levels in one step) with an automatically searched
// level partition. See the examples directory for richer scenarios.
package durability

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/opt"
	"durability/internal/persist"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/stream"
)

// Re-exported substrate types. State, Process and Observer form the
// simulation contract: a Process steps a State forward one time unit at a
// time, and an Observer extracts the real-valued quantity queries
// threshold on.
type (
	// State is one snapshot of a process; Clone must deep-copy it.
	State = stochastic.State
	// Process is the step-wise simulation procedure 𝔤.
	Process = stochastic.Process
	// Observer maps a state to the real-valued evaluation z(x).
	Observer = stochastic.Observer
	// Result carries the estimate, its variance, the confidence interval
	// accessors, and cost accounting (Steps = simulator invocations).
	Result = mc.Result
	// StopRule decides when sampling may stop.
	StopRule = mc.StopRule
	// Plan is an MLSS level-partition plan.
	Plan = core.Plan
)

// Method selects the sampling algorithm. It aliases the serving layer's
// enum (like Result and Plan alias theirs) so the two never drift.
type Method = serve.Method

// Available methods.
const (
	// GMLSS is general multi-level splitting (§4 of the paper): unbiased
	// for arbitrary processes, including ones that skip levels. The
	// default.
	GMLSS = serve.GMLSS
	// SMLSS is simple multi-level splitting (§3): slightly cheaper
	// bookkeeping, but unbiased only when the process cannot jump across
	// a level boundary in a single step.
	SMLSS = serve.SMLSS
	// SRS is simple random sampling, the standard Monte-Carlo baseline.
	SRS = serve.SRS
)

// Query is a durability prediction query in the standard threshold form:
// the probability that Z(state) >= Beta at any time 1..Horizon.
type Query struct {
	Z       Observer
	Beta    float64
	Horizon int

	// ZName optionally names the observer for Session plan caching. With
	// it empty the observer function value itself is the identity, which
	// is right for package-level observers (ScalarValue, Queue2Len, ...)
	// and for a closure built once and reused across a sweep. Set ZName
	// when logically identical observers are constructed per query (say
	// NodeLen(2) rebuilt in a loop) so their cached plans can be shared.
	// It never influences the numerics.
	ZName string
}

// Validate reports configuration errors.
func (q Query) Validate() error {
	if q.Z == nil {
		return errors.New("durability: query has no observer")
	}
	if q.Beta <= 0 {
		return fmt.Errorf("durability: threshold %v must be positive (the value function scales by it)", q.Beta)
	}
	if q.Horizon <= 0 {
		return fmt.Errorf("durability: horizon %d must be positive", q.Horizon)
	}
	return nil
}

type planMode int

const (
	planAuto planMode = iota // adaptive greedy search (§5.2)
	planFixed
	planBalanced
)

type config struct {
	method      Method
	ratio       int
	workers     int
	concurrency int
	seed        uint64
	stops       mc.Any
	planMode    planMode
	planSet     bool // an explicit plan option was given (conflicts with SRS)
	plan        core.Plan
	balTau      float64
	balLevels   int
	trace       func(Result)

	// Standing-query (Watch) knobs; ignored by Run/RunMany.
	driftTol float64
	maxAge   int64
}

// Option configures Run.
type Option func(*config) error

// WithMethod selects the sampler (default GMLSS).
func WithMethod(m Method) Option {
	return func(c *config) error {
		if m != GMLSS && m != SMLSS && m != SRS {
			return fmt.Errorf("durability: unknown method %v", m)
		}
		c.method = m
		return nil
	}
}

// WithSplitRatio sets the MLSS splitting ratio r (default 3, the value the
// paper's ratio sweep identifies as near-optimal across models).
func WithSplitRatio(r int) Option {
	return func(c *config) error {
		if r < 1 {
			return fmt.Errorf("durability: splitting ratio %d must be >= 1", r)
		}
		c.ratio = r
		return nil
	}
}

// WithPlan fixes the MLSS level boundaries explicitly (values in (0,1),
// relative to the threshold: boundary 0.5 splits paths whose value reaches
// half of Beta).
func WithPlan(boundaries ...float64) Option {
	return func(c *config) error {
		p, err := core.NewPlan(boundaries...)
		if err != nil {
			return err
		}
		c.planMode = planFixed
		c.planSet = true
		c.plan = p
		return nil
	}
}

// WithAutoLevels enables the adaptive greedy level search (the default):
// boundaries are placed automatically by trial simulations before the main
// run; the trials' cost is included in the result's Steps.
func WithAutoLevels() Option {
	return func(c *config) error {
		c.planMode = planAuto
		c.planSet = true
		return nil
	}
}

// WithBalancedLevels builds a balanced-growth plan with the given number
// of levels from a prior estimate tau of the answer (an order of magnitude
// suffices).
func WithBalancedLevels(tau float64, levels int) Option {
	return func(c *config) error {
		if tau <= 0 || tau >= 1 {
			return fmt.Errorf("durability: prior tau %v must be in (0,1)", tau)
		}
		if levels < 1 {
			return fmt.Errorf("durability: level count %d must be >= 1", levels)
		}
		c.planMode = planBalanced
		c.planSet = true
		c.balTau = tau
		c.balLevels = levels
		return nil
	}
}

// WithSeed fixes the random seed; runs with equal seeds and settings are
// bit-for-bit reproducible regardless of parallelism.
func WithSeed(seed uint64) Option {
	return func(c *config) error { c.seed = seed; return nil }
}

// WithWorkers caps the simulation kernels one sampling round steps at
// once (default 1). A round borrows only the CPUs idle when it starts, up
// to n, and the answer does not depend on how many joined.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("durability: worker count %d must be >= 1", n)
		}
		c.workers = n
		return nil
	}
}

// WithQueryConcurrency sets how many queries RunMany executes at once
// (default: GOMAXPROCS, never more than the number of queries). It only
// affects RunMany; single Run calls ignore it.
func WithQueryConcurrency(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("durability: query concurrency %d must be >= 1", n)
		}
		c.concurrency = n
		return nil
	}
}

// WithBudget caps the total number of simulator invocations.
func WithBudget(steps int64) Option {
	return func(c *config) error {
		if steps <= 0 {
			return fmt.Errorf("durability: budget %d must be positive", steps)
		}
		c.stops = append(c.stops, mc.Budget{Steps: steps})
		return nil
	}
}

// WithCITarget stops when the confidence interval half-width (relative to
// the estimate if relative is true) reaches half at the given confidence.
func WithCITarget(half, confidence float64, relative bool) Option {
	return func(c *config) error {
		if half <= 0 || confidence <= 0 || confidence >= 1 {
			return fmt.Errorf("durability: bad CI target (half=%v, confidence=%v)", half, confidence)
		}
		c.stops = append(c.stops, mc.CITarget{Half: half, Confidence: confidence, Relative: relative})
		return nil
	}
}

// WithRelativeErrorTarget stops when sqrt(Var)/estimate reaches re — the
// paper's quality measure for rare queries (it uses 0.10).
func WithRelativeErrorTarget(re float64) Option {
	return func(c *config) error {
		if re <= 0 {
			return fmt.Errorf("durability: relative error target %v must be positive", re)
		}
		c.stops = append(c.stops, mc.RETarget{Target: re})
		return nil
	}
}

// WithDriftTolerance sets a standing query's survival tolerance: root
// paths sampled earlier keep contributing to the maintained answer while
// the live state's observed value stays within tol*Beta of the value they
// started from. It is the staleness/cost dial of Watch — wider keeps more
// of the pool alive across ticks (cheaper maintenance), tighter keeps the
// answer closer to the exact point value. Run and RunMany ignore it.
func WithDriftTolerance(tol float64) Option {
	return func(c *config) error {
		if tol <= 0 || tol >= 1 {
			return fmt.Errorf("durability: drift tolerance %v must be in (0,1)", tol)
		}
		c.driftTol = tol
		return nil
	}
}

// WithMaxAnswerAge caps, in ticks, how long a standing query's root paths
// may keep contributing to its maintained answer, bounding staleness on a
// becalmed stream. Run and RunMany ignore it.
func WithMaxAnswerAge(ticks int64) Option {
	return func(c *config) error {
		if ticks < 1 {
			return fmt.Errorf("durability: max answer age %d must be >= 1", ticks)
		}
		c.maxAge = ticks
		return nil
	}
}

// WithTrace registers a callback invoked with the running result after
// every batch — convergence monitoring.
func WithTrace(f func(Result)) Option {
	return func(c *config) error { c.trace = f; return nil }
}

// defaultSafetyCap bounds runaway runs when only a quality target is set
// and the event turns out to be (nearly) impossible.
const defaultSafetyCap = int64(2_000_000_000)

// buildConfig applies options over the defaults and finishes the
// cross-option validation a single Option cannot see.
func buildConfig(opts []Option) (config, error) {
	cfg := config{method: GMLSS, ratio: 3, workers: 1, seed: 1, planMode: planAuto}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return config{}, err
		}
	}
	if cfg.method == SRS && cfg.planSet {
		return config{}, errors.New("durability: WithPlan, WithBalancedLevels and WithAutoLevels configure MLSS level partitions and cannot be combined with WithMethod(SRS)")
	}
	if len(cfg.stops) == 0 {
		cfg.stops = append(cfg.stops, mc.RETarget{Target: 0.10})
	}
	cfg.stops = append(cfg.stops, mc.Budget{Steps: defaultSafetyCap})
	return cfg, nil
}

// observerID identifies q's observer for plan caching: the explicit ZName
// when given, the observer function value's identity otherwise. The
// identity is the funcval pointer (the first word of the func value), not
// the code pointer reflect.Value.Pointer exposes — whether same-origin
// closures share a code pointer depends on inlining, and aliasing
// distinct observers would reuse a plan tuned for the wrong level
// geometry. The funcval address is best-effort too (a stack-allocated
// closure can move; an address can be reused after its closure dies), but
// in session flows observers escape into sampler specs and stay
// heap-pinned for the session's life, and either failure mode only costs
// a duplicate or mis-tuned search — MLSS stays unbiased under any plan.
// ZName is the reliable identity; set it when constructing observers per
// query.
func observerID(q Query) string {
	if q.ZName != "" {
		return q.ZName
	}
	return fmt.Sprintf("fn:%x", *(*uintptr)(unsafe.Pointer(&q.Z)))
}

// spec lowers a validated (config, query) pair onto the serving layer.
func (c config) spec(proc Process, q Query) serve.Spec {
	var mode serve.PlanMode
	switch c.planMode {
	case planFixed:
		mode = serve.PlanFixed
	case planBalanced:
		mode = serve.PlanBalanced
	default:
		mode = serve.PlanAuto
	}
	return serve.Spec{
		Proc:       proc,
		Obs:        q.Z,
		ModelID:    proc.Name(),
		ObserverID: observerID(q),
		Beta:       q.Beta,
		Horizon:    q.Horizon,
		Method:     c.method,
		PlanMode:   mode,
		Plan:       c.plan,
		BalTau:     c.balTau,
		BalLevels:  c.balLevels,
		Ratio:      c.ratio,
		Seed:       c.seed,
		SimWorkers: c.workers,
		Stop:       c.stops,
		Trace:      c.trace,
	}
}

// Run answers the query against the process. At least one stopping option
// (WithBudget, WithCITarget, WithRelativeErrorTarget) should be given;
// with none, a relative-error target of 10% is used. A safety budget of
// two billion simulator invocations always applies.
//
// Every Run call pays its own level search. When many queries share a
// model, open a Session instead: its plan cache amortizes the search
// across queries.
func Run(ctx context.Context, proc Process, q Query, opts ...Option) (Result, error) {
	if proc == nil {
		return Result{}, errors.New("durability: nil process")
	}
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return Result{}, err
	}
	r := &serve.Runner{} // no cache: the paper's per-query behavior
	res, _, err := r.Run(ctx, cfg.spec(proc, q))
	return res, err
}

// AutoPlan runs only the adaptive greedy level search (§5.2) and returns
// the selected plan plus the number of simulator invocations spent, for
// callers who want to reuse a plan across many queries.
func AutoPlan(ctx context.Context, proc Process, q Query, ratio int, seed uint64) (Plan, int64, error) {
	if err := q.Validate(); err != nil {
		return Plan{}, 0, err
	}
	if ratio < 1 {
		ratio = 3
	}
	problem := &opt.Problem{
		Proc:  proc,
		Query: core.Query{Value: core.ThresholdValue(q.Z, q.Beta), Horizon: q.Horizon},
		Ratio: ratio,
		Seed:  seed,
	}
	g, err := opt.Greedy(ctx, problem, opt.GreedyOptions{})
	if err != nil {
		return Plan{}, 0, err
	}
	return g.Plan, g.SearchSteps, nil
}

// NewPlan validates explicit level boundaries into a Plan.
func NewPlan(boundaries ...float64) (Plan, error) { return core.NewPlan(boundaries...) }

// Session answers many durability queries against one process while
// amortizing the level-search cost across them. Run pays the adaptive
// search of §5.2 on every call; a Session memoizes the resulting plans by
// query shape (observer, normalized threshold bucket, horizon, splitting
// ratio) with single-flight deduplication, so N concurrent queries of the
// same shape trigger exactly one search and every later query samples
// immediately. Reuse is safe: MLSS is unbiased under any level plan, so a
// cached plan changes only the cost of an answer, never its distribution.
//
// A Session is safe for concurrent use, and results remain deterministic
// even under concurrency: a cached plan is a pure function of the query
// shape (the search runs at the bucket's canonical threshold with a
// shape-derived seed), so it cannot depend on which concurrent query won
// the single-flight race, and a query answered with a cached plan P and
// seed s returns bit-for-bit the same estimate as Run with
// WithPlan(P.Boundaries...) and WithSeed(s).
type Session struct {
	proc     Process
	defaults []Option
	runner   *serve.Runner

	// Standing-query engine, created lazily by Watch/Publish; it shares
	// runner (and so the plan cache) with the one-shot query path.
	streamOnce sync.Once
	stream     *stream.Engine

	// Durable sessions (OpenSession) carry the checkpoint+WAL store and
	// the named observers persisted subscriptions are rebuilt from; both
	// are nil on a plain NewSession.
	store     *persist.Store
	observers map[string]Observer

	queries     atomic.Int64
	sampleSteps atomic.Int64
}

// NewSession opens a session on the process. The options become defaults
// for every query and may be overridden per call; they are validated
// eagerly.
func NewSession(proc Process, defaults ...Option) (*Session, error) {
	if proc == nil {
		return nil, errors.New("durability: nil process")
	}
	if _, err := buildConfig(defaults); err != nil {
		return nil, err
	}
	return &Session{
		proc:     proc,
		defaults: append([]Option(nil), defaults...),
		runner:   &serve.Runner{Cache: serve.NewPlanCache(0)},
	}, nil
}

// Run answers one query through the session's plan cache. The result's
// Steps include level-search cost only when this call performed the
// search; queries served from the cache report their sampling cost alone.
func (s *Session) Run(ctx context.Context, q Query, opts ...Option) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	all := append(append([]Option(nil), s.defaults...), opts...)
	cfg, err := buildConfig(all)
	if err != nil {
		return Result{}, err
	}
	res, meta, err := s.runner.Run(ctx, cfg.spec(s.proc, q))
	// Book the sampling cost even when the query failed mid-run — partial
	// runs burned real simulation, and Stats must not hide it. (Search
	// cost flows through the plan cache's counter, failed searches
	// included.) Queries counts successful answers only.
	s.sampleSteps.Add(res.Steps - meta.SearchSteps)
	if err != nil {
		return res, err
	}
	s.queries.Add(1)
	return res, nil
}

// RunBatch answers a set of queries that share a (observer, horizon)
// shape with one splitting run per shape: a covering level plan is built
// whose boundaries include every requested threshold (with per-level
// splitting ratios balanced against measured advancement), a single
// shared g-MLSS run is executed through the session's execution path, and
// each query's estimate and confidence interval are derived from the
// shared per-level counters as a cumulative level-crossing prefix. The
// shared run continues until every threshold's quality target holds, so
// its cost is set by the hardest threshold and every easier one rides
// along nearly free — the cross-query sharing the per-query path cannot
// express even with a warm plan cache.
//
// Queries of different shapes batch separately; a shape with a single
// query falls back to the per-query path. Results align with qs; each
// batched Result reports the shared run's Steps and Paths (the cost is
// joint, not divisible). RunBatch requires the default GMLSS method with
// automatic levels — fixed/balanced plans and SRS have no covering form.
func (s *Session) RunBatch(ctx context.Context, qs []Query, opts ...Option) ([]Result, error) {
	all := append(append([]Option(nil), s.defaults...), opts...)
	cfg, err := buildConfig(all)
	if err != nil {
		return nil, err
	}
	if cfg.method != GMLSS || cfg.planMode != planAuto {
		return nil, errors.New("durability: RunBatch requires GMLSS with automatic levels (no WithMethod(SRS/SMLSS), WithPlan or WithBalancedLevels)")
	}
	if len(qs) == 0 {
		return nil, nil
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	results := make([]Result, len(qs))
	for _, group := range groupByShape(qs) {
		if err := s.runBatchGroup(ctx, cfg, opts, qs, group, results); err != nil {
			return results, err
		}
	}
	return results, nil
}

// groupByShape partitions query indices by batchable shape: the observer
// identity, the horizon — and the observer *function value* itself. The
// last is load-bearing: a shared run simulates one observer for the whole
// group, so unlike plan caching (where ZName aliasing across distinct
// funcs only reuses a mis-tuned-at-worst plan), batching queries whose Z
// funcs differ would compute some answers over the wrong observer.
// Same-ID-different-func queries therefore land in separate groups and
// still share plans through the cache. Order within a group follows qs.
func groupByShape(qs []Query) [][]int {
	type shape struct {
		obs     string
		fn      uintptr
		horizon int
	}
	order := make([]shape, 0, 4)
	groups := make(map[shape][]int, 4)
	for i, q := range qs {
		k := shape{obs: observerID(q), fn: *(*uintptr)(unsafe.Pointer(&q.Z)), horizon: q.Horizon}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}

// runBatchGroup answers one shape group, writing into results at the
// group's original positions.
func (s *Session) runBatchGroup(ctx context.Context, cfg config, opts []Option, qs []Query, group []int, results []Result) error {
	if len(group) == 1 {
		res, err := s.Run(ctx, qs[group[0]], opts...)
		results[group[0]] = res
		return err
	}
	q0 := qs[group[0]]
	betas := make([]float64, len(group))
	for i, gi := range group {
		betas[i] = qs[gi].Beta
	}
	spec := serve.BatchSpec{
		Proc:       s.proc,
		Obs:        q0.Z,
		ModelID:    s.proc.Name(),
		ObserverID: observerID(q0),
		Betas:      betas,
		Horizon:    q0.Horizon,
		Ratio:      cfg.ratio,
		Seed:       cfg.seed,
		SimWorkers: cfg.workers,
		Stop:       cfg.stops,
		Trace:      cfg.trace, // one shared run: traced through the hardest threshold
	}
	res, meta, err := s.runner.RunBatch(ctx, spec)
	// Shared sampling cost is booked once for the whole group; the search
	// cost flows through the plan cache's counter as usual.
	s.sampleSteps.Add(meta.SharedSteps)
	if err != nil {
		return err
	}
	for i, gi := range group {
		results[gi] = res[i]
	}
	s.queries.Add(int64(len(group)))
	return nil
}

// RunMany answers a batch of queries. Queries sharing a shape (observer
// and horizon, under the default GMLSS method with automatic levels) are
// answered by one shared splitting run per shape via RunBatch; remaining
// queries execute concurrently through the per-query path
// (WithQueryConcurrency controls that parallelism; the default is
// GOMAXPROCS), deduplicating level searches through the plan cache.
// Results are positionally aligned with qs. The first error cancels the
// remaining queries and is returned alongside whatever results completed.
func (s *Session) RunMany(ctx context.Context, qs []Query, opts ...Option) ([]Result, error) {
	all := append(append([]Option(nil), s.defaults...), opts...)
	cfg, err := buildConfig(all)
	if err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return make([]Result, len(qs)), err
	}

	// Delegate shape groups to the batch path when the configuration
	// supports it: shared runs answer a whole threshold lattice at the
	// cost of its hardest member. Per-query traces and explicit plans keep
	// the per-query path.
	results := make([]Result, len(qs))
	var singles []int
	var groups [][]int
	if cfg.method == GMLSS && cfg.planMode == planAuto && cfg.trace == nil {
		for _, group := range groupByShape(qs) {
			if len(group) < 2 {
				singles = append(singles, group...)
			} else {
				groups = append(groups, group)
			}
		}
	} else {
		singles = make([]int, len(qs))
		for i := range qs {
			singles[i] = i
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// One bounded pool executes every unit of work — a shape group's
	// shared run counts as one unit, exactly like a single query, so a
	// many-shape sweep cannot oversubscribe the machine beyond
	// WithQueryConcurrency.
	type unit struct {
		group  []int // a shape group's shared run...
		single int   // ...or one per-query index (when group is nil)
	}
	units := make([]unit, 0, len(groups)+len(singles))
	for _, g := range groups {
		units = append(units, unit{group: g})
	}
	for _, i := range singles {
		units = append(units, unit{group: nil, single: i})
	}
	workers := cfg.concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	jobs := make(chan unit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range jobs {
				if u.group != nil {
					if err := s.runBatchGroup(ctx, cfg, opts, qs, u.group, results); err != nil {
						fail(err)
						return
					}
					continue
				}
				res, err := s.Run(ctx, qs[u.single], opts...)
				results[u.single] = res
				if err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for _, u := range units {
		select {
		case jobs <- u:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return results, firstErr
}

// CachedPlan reports the level plan the session would reuse for q's
// shape, if one is cached. Options refine the shape the same way they
// would for Run (splitting ratio, balanced-plan parameters).
func (s *Session) CachedPlan(q Query, opts ...Option) (Plan, bool) {
	if err := q.Validate(); err != nil {
		return Plan{}, false
	}
	all := append(append([]Option(nil), s.defaults...), opts...)
	cfg, err := buildConfig(all)
	if err != nil {
		return Plan{}, false
	}
	return s.runner.PeekPlan(cfg.spec(s.proc, q))
}

// Stats reports the session's accumulated cost accounting.
func (s *Session) Stats() SessionStats {
	cache := s.runner.Cache.Stats()
	return SessionStats{
		Queries:         s.queries.Load(),
		SampleSteps:     s.sampleSteps.Load(),
		PlanEntries:     cache.Entries,
		PlanHits:        cache.Hits,
		PlanMisses:      cache.Misses,
		PlanSearchSteps: cache.SearchSteps,
	}
}

// SessionStats is a point-in-time snapshot of a session.
type SessionStats struct {
	Queries     int64 // queries answered successfully
	SampleSteps int64 // simulator invocations spent sampling, failed queries included
	// Plan cache effectiveness: searches run, lookups served from cache,
	// and the total simulator invocations searches consumed (failed and
	// cancelled searches included).
	PlanEntries     int
	PlanHits        int64
	PlanMisses      int64
	PlanSearchSteps int64
}

// HitRate returns the plan-cache hit rate, or 0 before any MLSS query.
func (st SessionStats) HitRate() float64 {
	total := st.PlanHits + st.PlanMisses
	if total == 0 {
		return 0
	}
	return float64(st.PlanHits) / float64(total)
}

// TotalSteps returns every simulator invocation the session performed.
func (st SessionStats) TotalSteps() int64 { return st.SampleSteps + st.PlanSearchSteps }

// RunMany is the one-shot convenience form of Session.RunMany: it opens a
// session with the given options as defaults, answers the batch through a
// shared plan cache, and discards the session.
func RunMany(ctx context.Context, proc Process, qs []Query, opts ...Option) ([]Result, error) {
	s, err := NewSession(proc, opts...)
	if err != nil {
		return nil, err
	}
	return s.RunMany(ctx, qs)
}

// RunBatch is the one-shot convenience form of Session.RunBatch: queries
// sharing a (observer, horizon) shape are answered by one shared
// splitting run over a covering level plan, so a whole threshold ladder
// costs about as much as its hardest member. See Session.RunBatch.
func RunBatch(ctx context.Context, proc Process, qs []Query, opts ...Option) ([]Result, error) {
	s, err := NewSession(proc, opts...)
	if err != nil {
		return nil, err
	}
	return s.RunBatch(ctx, qs)
}
