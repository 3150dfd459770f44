package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/planstats"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

// ModelFactory rebuilds a model and its named observers, reusing the
// registry idiom of internal/cluster: processes are not serialisable (they
// may hold neural networks), so only names travel over the wire and every
// server constructs models locally from registered factories.
type ModelFactory func() (stochastic.Process, map[string]stochastic.Observer, error)

// Registry maps model names to factories.
type Registry map[string]ModelFactory

// Request is one durability query as a front end submits it.
type Request struct {
	Model    string  `json:"model"`
	Observer string  `json:"observer,omitempty"` // default "value"
	Beta     float64 `json:"beta"`
	Horizon  int     `json:"horizon"`

	Method string  `json:"method,omitempty"` // "g-mlss" (default) | "s-mlss" | "srs"
	RelErr float64 `json:"re,omitempty"`     // relative-error target (default: server's)
	Budget int64   `json:"budget,omitempty"` // step budget (capped by the server's MaxBudget)
	Ratio  int     `json:"ratio,omitempty"`  // splitting ratio (default 3)
	Seed   uint64  `json:"seed,omitempty"`   // 0 selects the server seed
}

// Response is the answer to one Request.
type Response struct {
	P       float64 `json:"p"`
	StdErr  float64 `json:"stderr"`
	RelErr  float64 `json:"relErr"`
	CILo    float64 `json:"ciLo"` // 95% confidence interval
	CIHi    float64 `json:"ciHi"`
	Steps   int64   `json:"steps"` // includes search steps when this query paid them
	Paths   int64   `json:"paths"`
	Hits    int64   `json:"hits"`
	Elapsed float64 `json:"elapsedSec"`

	Method      string    `json:"method"`
	Plan        []float64 `json:"plan,omitempty"`
	SearchSteps int64     `json:"searchSteps"`
	PlanCached  bool      `json:"planCached"`
}

// Config tunes a Server.
type Config struct {
	// PoolWorkers is the number of queries executed concurrently
	// (default: GOMAXPROCS).
	PoolWorkers int
	// QueueDepth bounds the admission queue; a query arriving while the
	// queue is full is rejected immediately with ErrOverloaded
	// (default 64).
	QueueDepth int
	// SimWorkers caps the kernels one round of a query, batch or level
	// search steps at once (<= 0, the default: GOMAXPROCS). Rounds borrow
	// only idle CPUs (core's runLaneChunks), so a lone query spreads over
	// the machine and a saturated pool lends nothing; answers do not
	// depend on the width.
	SimWorkers int
	// QueryTimeout is the per-query deadline enforced on top of the
	// caller's context (0 = none).
	QueryTimeout time.Duration
	// MaxBudget caps any single query's simulator invocations
	// (default 200_000_000).
	MaxBudget int64
	// DefaultRelErr is the quality target applied when a request names
	// neither a relative-error target nor a budget (default 0.10, the
	// paper's setting).
	DefaultRelErr float64
	// Seed is the base random seed used when a request does not fix one.
	Seed uint64
	// BetaBucketWidth is the plan cache's relative threshold-bucket width
	// (default DefaultBetaBucketWidth).
	BetaBucketWidth float64
	// PlanCacheCap caps the number of completed plans kept resident
	// (default DefaultPlanCacheCap; negative removes the cap).
	PlanCacheCap int
	// Executor, when set, is the execution backend g-MLSS queries run on
	// (see Runner.Exec); nil keeps every query on the in-process
	// samplers.
	Executor exec.Executor

	// CoalesceWindow is how long the first batch request of a
	// compatibility class (model, observer, horizon, ratio, seed, quality
	// target) holds the door open for concurrently arriving compatible
	// batches before the shared run starts; everyone who joins is answered
	// from one run over the union of their thresholds. 0 disables
	// coalescing: every batch runs alone (still one run for all its own
	// thresholds).
	CoalesceWindow time.Duration

	// MaxHorizon rejects queries whose horizon exceeds it (0 = unlimited).
	// Budgets are enforced between sampling rounds, so a single absurd
	// horizon can overshoot MaxBudget by a whole round; front ends exposed
	// to untrusted bodies should set a ceiling.
	MaxHorizon int

	// Tracer, when non-nil, receives query-lifecycle spans (admission,
	// plan-cache/plan-search, exec, merge, answer, and the end-to-end
	// query/batch envelopes). Telemetry only — a nil tracer serves
	// identically.
	Tracer *telemetry.Tracer

	// Ledger, when non-nil, receives every finished g-MLSS run's crossing
	// counters keyed by plan (see Runner.Ledger) — the feed behind plan
	// drift metrics and GET /plans. Observability only — a nil ledger
	// serves identically.
	Ledger *planstats.Ledger
}

func (c Config) withDefaults() Config {
	if c.PoolWorkers <= 0 {
		c.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 200_000_000
	}
	if c.DefaultRelErr <= 0 {
		c.DefaultRelErr = 0.10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ErrOverloaded reports that the admission queue was full — the server is
// shedding load rather than queueing without bound.
var ErrOverloaded = errors.New("serve: server overloaded, query rejected")

// ErrClosed reports a submission to a server that has been closed.
var ErrClosed = errors.New("serve: server is closed")

// ErrInternal marks failures on the server's side of the contract (a model
// factory failing to build, for example), so HTTP front ends can answer
// 5xx instead of blaming the client's request.
var ErrInternal = errors.New("serve: internal error")

// builtModel is a lazily constructed model shared by all queries; Process
// implementations are safe for concurrent Step calls on distinct states
// (the samplers already rely on this for their own parallelism). The
// factory runs under the entry's own once, never under the server lock —
// a heavy build (the factory may load a neural network) must not stall
// admission or unrelated models.
type builtModel struct {
	factory   ModelFactory
	once      sync.Once
	proc      stochastic.Process
	observers map[string]stochastic.Observer
	err       error
}

// job is one admitted unit of work waiting for a pool worker: a single
// query, or a coalesced batch occupying one pool slot for all its callers.
type job struct {
	ctx   context.Context
	req   Request
	reply chan outcome
	batch *batchGather
	// admit times the admission wait (enqueue to pool-worker pickup). A
	// shed or never-admitted job simply never ends its span.
	admit *telemetry.Span
}

type outcome struct {
	resp Response
	err  error
}

// Server schedules durability queries onto a bounded worker pool, executes
// them through a shared plan cache, and keeps serving statistics. It is
// the embeddable core of the durserve daemon, but has no network
// dependency of its own.
type Server struct {
	cfg      Config
	registry Registry
	runner   *Runner

	mu      sync.Mutex
	models  map[string]*builtModel
	closed  bool
	pending map[batchKey]*batchGather // batch gathers holding their coalescing window open

	queue chan *job
	wg    sync.WaitGroup

	stats serverCounters
}

// NewServer starts a server with its worker pool running. Close releases
// the pool.
func NewServer(registry Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	cap := cfg.PlanCacheCap
	if cap == 0 {
		cap = DefaultPlanCacheCap
	}
	s := &Server{
		cfg:      cfg,
		registry: registry,
		runner:   &Runner{Cache: NewPlanCache(cfg.BetaBucketWidth, WithCacheCapacity(cap)), Exec: cfg.Executor, Trace: cfg.Tracer, Ledger: cfg.Ledger},
		models:   make(map[string]*builtModel),
		pending:  make(map[batchKey]*batchGather),
		queue:    make(chan *job, cfg.QueueDepth),
	}
	for w := 0; w < cfg.PoolWorkers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.stats.queueDepth.Add(-1)
				j.admit.End()
				if j.batch != nil {
					s.executeBatch(j.batch)
					continue
				}
				resp, err := s.execute(j.ctx, j.req)
				j.reply <- outcome{resp: resp, err: err}
			}
		}()
	}
	return s
}

// Close stops accepting queries and waits for in-flight ones to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// Runner exposes the server's query runner (and through it the shared
// plan cache), so sibling subsystems — the standing-query engine of
// internal/stream in particular — amortize their level searches against
// the same cache the one-shot query path fills.
func (s *Server) Runner() *Runner { return s.runner }

// Do submits a query and waits for its answer. Admission control is
// immediate: a full queue rejects with ErrOverloaded instead of blocking,
// and a context that expires while the query waits or runs returns the
// context's error.
func (s *Server) Do(ctx context.Context, req Request) (Response, error) {
	j := &job{ctx: ctx, req: req, reply: make(chan outcome, 1), admit: s.cfg.Tracer.Start(telemetry.StageAdmission)}
	// The enqueue must happen under the same lock as the closed check:
	// Close closes s.queue, and a send racing that close would panic. The
	// send is non-blocking, so the critical section stays short.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Response{}, ErrClosed
	}
	select {
	case s.queue <- j:
		s.stats.queueDepth.Add(1)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.stats.rejected.Add(1)
		return Response{}, ErrOverloaded
	}
	select {
	case out := <-j.reply:
		return out.resp, out.err
	case <-ctx.Done():
		// The worker will notice the dead context; the buffered reply
		// channel lets it finish without leaking.
		return Response{}, ctx.Err()
	}
}

// model returns the lazily built model for name. The server lock covers
// only the map lookup; the build itself is deduplicated by the entry's
// once, and a failed build is evicted so a later request can retry.
func (s *Server) model(name string) (*builtModel, error) {
	s.mu.Lock()
	m, ok := s.models[name]
	if !ok {
		factory, known := s.registry[name]
		if !known {
			s.mu.Unlock()
			return nil, fmt.Errorf("serve: unknown model %q", name)
		}
		m = &builtModel{factory: factory}
		s.models[name] = m
	}
	s.mu.Unlock()

	m.once.Do(func() {
		proc, observers, err := m.factory()
		if err != nil {
			m.err = fmt.Errorf("%w: building model %q: %v", ErrInternal, name, err)
			return
		}
		if len(observers) == 0 {
			m.err = fmt.Errorf("%w: model %q registered no observers", ErrInternal, name)
			return
		}
		m.proc, m.observers = proc, observers
	})
	if m.err != nil {
		s.mu.Lock()
		if s.models[name] == m {
			delete(s.models, name)
		}
		s.mu.Unlock()
		return nil, m.err
	}
	return m, nil
}

// spec translates a request into a runnable Spec.
func (s *Server) spec(req Request) (Spec, error) {
	m, err := s.model(req.Model)
	if err != nil {
		return Spec{}, err
	}
	obsName := req.Observer
	if obsName == "" {
		obsName = "value"
	}
	obs, ok := m.observers[obsName]
	if !ok {
		return Spec{}, fmt.Errorf("serve: model %q has no observer %q", req.Model, obsName)
	}
	if s.cfg.MaxHorizon > 0 && req.Horizon > s.cfg.MaxHorizon {
		return Spec{}, fmt.Errorf("serve: horizon %d exceeds the server's cap %d", req.Horizon, s.cfg.MaxHorizon)
	}

	var method Method
	switch req.Method {
	case "", "g-mlss", "gmlss":
		method = GMLSS
	case "s-mlss", "smlss":
		method = SMLSS
	case "srs":
		method = SRS
	default:
		return Spec{}, fmt.Errorf("serve: unknown method %q", req.Method)
	}

	ratio := req.Ratio
	if ratio <= 0 {
		ratio = 3
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}

	var stop mc.Any
	if req.RelErr > 0 {
		stop = append(stop, mc.RETarget{Target: req.RelErr})
	}
	budget := s.cfg.MaxBudget
	if req.Budget > 0 && req.Budget < budget {
		budget = req.Budget
	}
	if len(stop) == 0 && req.Budget <= 0 {
		stop = append(stop, mc.RETarget{Target: s.cfg.DefaultRelErr})
	}
	stop = append(stop, mc.Budget{Steps: budget})

	return Spec{
		Proc:       m.proc,
		Obs:        obs,
		ModelID:    req.Model,
		ObserverID: obsName,
		Beta:       req.Beta,
		Horizon:    req.Horizon,
		Method:     method,
		PlanMode:   PlanAuto,
		Ratio:      ratio,
		Seed:       seed,
		SimWorkers: s.cfg.SimWorkers,
		Stop:       stop,
	}, nil
}

// execute runs one admitted query on a pool worker.
func (s *Server) execute(ctx context.Context, req Request) (Response, error) {
	qspan := s.cfg.Tracer.Start(telemetry.StageQuery)
	defer qspan.End()
	if err := ctx.Err(); err != nil {
		// Expired while queued: count as shed load, not as a query served.
		s.stats.rejected.Add(1)
		return Response{}, err
	}
	spec, err := s.spec(req)
	if err != nil {
		s.stats.errors.Add(1)
		return Response{}, err
	}
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	s.stats.inFlight.Add(1)
	res, meta, err := s.runner.Run(ctx, spec)
	s.stats.inFlight.Add(-1)
	// Sampling cost is booked even for failed queries — partial runs
	// burned real simulation. (Search cost flows through the cache's own
	// counter, failed searches included.)
	s.stats.sampleSteps.Add(res.Steps - meta.SearchSteps)
	if err != nil {
		s.stats.errors.Add(1)
		return Response{}, err
	}
	s.stats.served.Add(1)

	aspan := s.cfg.Tracer.Start(telemetry.StageAnswer)
	defer aspan.End()
	ci := res.CI(0.95)
	return Response{
		P:           res.P,
		StdErr:      res.StdErr(),
		RelErr:      res.RelErr(),
		CILo:        ci.Lo,
		CIHi:        ci.Hi,
		Steps:       res.Steps,
		Paths:       res.Paths,
		Hits:        res.Hits,
		Elapsed:     res.Elapsed.Seconds(),
		Method:      spec.Method.String(),
		Plan:        meta.Plan.Boundaries,
		SearchSteps: meta.SearchSteps,
		PlanCached:  meta.CacheHit,
	}, nil
}
