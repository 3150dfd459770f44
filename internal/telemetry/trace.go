package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span stage names covering the query lifecycle: a one-shot query is
// admission → plan-cache|plan-search → exec → merge → answer, a batch is
// admission → plan-cache|plan-search → exec → merge → answer under the
// batch envelope, and a standing query's maintenance is refresh (which
// itself pays plan-search and exec through the shared runner). The
// query/batch stages time the whole lifecycle end to end, so their
// histograms are the serving latency distributions.
const (
	StageAdmission  = "admission"   // enqueue to pool-worker pickup
	StagePlanCache  = "plan-cache"  // plan resolved from the shared cache
	StagePlanSearch = "plan-search" // plan resolved by running a level search
	StageExec       = "exec"        // root-path simulation through the backend
	StageMerge      = "merge"       // one batch round's counter and moment folds + estimates + variances
	StageAnswer     = "answer"      // response assembly from the result
	StageQuery      = "query"       // one-shot query end to end
	StageBatch      = "batch"       // shared batch run end to end
	StageRefresh    = "refresh"     // one standing-query refresh
)

// StageAgg aggregates every span of one stage: how many spans ended, the
// simulator steps they were attributed, and the wall-time distribution.
// Step attribution is exact by construction: each serving call site
// books onto its span precisely the steps it books into the serving
// counters, so summing a stage's steps reproduces the server totals
// (plan-search == searchSteps, exec == sampleSteps) at any fixed seed.
type StageAgg struct {
	spans   atomic.Int64
	steps   atomic.Int64
	seconds *Histogram
}

// Spans reports how many spans of the stage have ended.
func (a *StageAgg) Spans() int64 {
	if a == nil {
		return 0
	}
	return a.spans.Load()
}

// Steps reports the simulator invocations attributed to the stage.
func (a *StageAgg) Steps() int64 {
	if a == nil {
		return 0
	}
	return a.steps.Load()
}

// Seconds snapshots the stage's wall-time distribution.
func (a *StageAgg) Seconds() HistogramSnapshot {
	if a == nil {
		return HistogramSnapshot{}
	}
	return a.seconds.Snapshot()
}

// Tracer aggregates lightweight trace spans by lifecycle stage. It is
// deliberately not a per-request trace store: serving millions of
// queries must not allocate per-span history, so a span folds into its
// stage's histogram and counters at End and is gone. A nil *Tracer (and
// a nil *Span) ignores every call, so instrumented code paths need no
// configuration checks.
type Tracer struct {
	mu      sync.Mutex
	stages  map[string]*StageAgg
	newHist func(stage string) *Histogram
}

// NewTracer builds a tracer. newHist, when non-nil, supplies the
// duration histogram for each stage as it first appears — the hook a
// metrics registry uses to own the histograms (so stages surface as
// labeled series); nil gets private histograms with DurationBuckets.
func NewTracer(newHist func(stage string) *Histogram) *Tracer {
	return &Tracer{stages: make(map[string]*StageAgg), newHist: newHist}
}

// Stage returns (creating if needed) the aggregate for a stage name.
func (t *Tracer) Stage(name string) *StageAgg {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.stages[name]
	if !ok {
		var h *Histogram
		if t.newHist != nil {
			h = t.newHist(name)
		}
		if h == nil {
			h = NewHistogram(DurationBuckets)
		}
		a = &StageAgg{seconds: h}
		t.stages[name] = a
	}
	return a
}

// StageNames returns the sorted names of every stage seen so far.
func (t *Tracer) StageNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.stages))
	for name := range t.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Steps is shorthand for Stage(name).Steps() without creating the stage.
func (t *Tracer) Steps(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	a := t.stages[name]
	t.mu.Unlock()
	return a.Steps()
}

// Observe folds one already-completed operation into a stage — the
// span-free form for call sites that pick the stage only after the
// operation finished (a plan resolution is a plan-cache hit or a
// plan-search depending on its outcome).
func (t *Tracer) Observe(stage string, d time.Duration, steps int64) {
	if t == nil {
		return
	}
	a := t.Stage(stage)
	a.spans.Add(1)
	a.steps.Add(steps)
	a.seconds.ObserveDuration(d)
}

// Span is one in-flight timed operation. Spans are cheap (one wall-clock
// read at start, one at End) and must not escape to persisted state —
// they exist precisely so wall time has somewhere to live *outside* the
// deterministic results.
type Span struct {
	agg   *StageAgg
	start time.Time
	steps int64
}

// Start opens a span on the named stage.
func (t *Tracer) Start(stage string) *Span {
	if t == nil {
		return nil
	}
	return &Span{agg: t.Stage(stage), start: Now()}
}

// AddSteps attributes simulator invocations to the span.
func (s *Span) AddSteps(n int64) {
	if s == nil {
		return
	}
	s.steps += n
}

// End folds the span into its stage aggregate. End must be called at
// most once; a span that is never ended is simply not recorded (the
// admission span of a shed query, for example).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.agg.spans.Add(1)
	s.agg.steps.Add(s.steps)
	s.agg.seconds.ObserveDuration(Since(s.start))
}
