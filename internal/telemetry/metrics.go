package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// EngineMetrics is the per-tick refresh telemetry of the standing-query
// engine (internal/stream): how many subscriptions a tick refreshed,
// how many fresh roots it topped up, how long ticks and individual
// refreshes took, and the maintenance event invisible in lifetime
// counters — dormant batches reviving when the state drifts back to
// them. A nil *EngineMetrics ignores every call.
type EngineMetrics struct {
	TickSeconds       *Histogram // wall time per engine update
	RefreshSeconds    *Histogram // wall time per subscription refresh
	RefreshedPerTick  *Histogram // subscriptions refreshed per tick
	TopUpRootsPerTick *Histogram // fresh roots simulated per tick

	// Trace, when non-nil, additionally books each refresh as a
	// StageRefresh span, so the lifecycle stage taxonomy covers
	// standing-query maintenance alongside the one-shot stages.
	Trace *Tracer

	revivals atomic.Int64
}

// NewEngineMetrics builds the bundle with default buckets.
func NewEngineMetrics() *EngineMetrics {
	return &EngineMetrics{
		TickSeconds:       NewHistogram(DurationBuckets),
		RefreshSeconds:    NewHistogram(DurationBuckets),
		RefreshedPerTick:  NewHistogram(SizeBuckets),
		TopUpRootsPerTick: NewHistogram(SizeBuckets),
	}
}

// ObserveTick records one engine update: its wall time, the
// subscriptions it refreshed and the fresh roots they topped up.
func (m *EngineMetrics) ObserveTick(d time.Duration, refreshed, topUpRoots int64) {
	if m == nil {
		return
	}
	m.TickSeconds.ObserveDuration(d)
	m.RefreshedPerTick.Observe(float64(refreshed))
	m.TopUpRootsPerTick.Observe(float64(topUpRoots))
}

// ObserveRefresh records one subscription refresh: its wall time, the
// fresh simulator steps its top-up paid, and how many dormant batches
// the new state revived. The refresh span carries only the fresh steps:
// refresh plan resolution goes through the shared runner, which already
// attributes search steps to plan-search spans, so every step lands on
// exactly one non-envelope stage.
func (m *EngineMetrics) ObserveRefresh(d time.Duration, freshSteps, revived int64) {
	if m == nil {
		return
	}
	m.RefreshSeconds.ObserveDuration(d)
	m.revivals.Add(revived)
	m.Trace.Observe(StageRefresh, d, freshSteps)
}

// Revivals reports dormant batches revived by the state drifting back.
func (m *EngineMetrics) Revivals() int64 {
	if m == nil {
		return 0
	}
	return m.revivals.Load()
}

// WorkerStats is the per-worker shard attribution of a cluster backend:
// every chunk call to one worker address folds in here, so a fleet's
// metrics show which machine is slow (coordinator-observed round-trip
// vs the worker's own measured simulation time) and which carries the
// steps. A nil *WorkerStats ignores every call.
type WorkerStats struct {
	calls  atomic.Int64
	errs   atomic.Int64
	steps  atomic.Int64
	roots  atomic.Int64
	nanos  atomic.Int64 // worker-side simulation time, shipped back on the reply
	Chunk  *Histogram   // coordinator-observed chunk round-trip seconds
	Remote *Histogram   // worker-reported simulation seconds
}

// Record folds one chunk call into the stats. workerNanos, steps and
// roots come from the worker's reply, so they are 0 when the call
// failed before one: an errored (or later retried) attempt books the
// call, the error and its round-trip, but no work the worker never
// performed.
func (w *WorkerStats) Record(d time.Duration, workerNanos, steps, roots int64, err error) {
	if w == nil {
		return
	}
	w.calls.Add(1)
	if err != nil {
		w.errs.Add(1)
	}
	w.steps.Add(steps)
	w.roots.Add(roots)
	w.nanos.Add(workerNanos)
	w.Chunk.ObserveDuration(d)
	if workerNanos > 0 {
		w.Remote.ObserveDuration(time.Duration(workerNanos))
	}
}

// Calls reports chunk calls dispatched to the worker.
func (w *WorkerStats) Calls() int64 {
	if w == nil {
		return 0
	}
	return w.calls.Load()
}

// Errors reports chunk calls that failed on the worker.
func (w *WorkerStats) Errors() int64 {
	if w == nil {
		return 0
	}
	return w.errs.Load()
}

// Steps reports simulator invocations the worker performed.
func (w *WorkerStats) Steps() int64 {
	if w == nil {
		return 0
	}
	return w.steps.Load()
}

// Roots reports root paths the worker simulated.
func (w *WorkerStats) Roots() int64 {
	if w == nil {
		return 0
	}
	return w.roots.Load()
}

// WorkerNanos reports the worker's own cumulative measured simulation
// time in nanoseconds.
func (w *WorkerStats) WorkerNanos() int64 {
	if w == nil {
		return 0
	}
	return w.nanos.Load()
}

// WorkerMetrics tracks WorkerStats per worker address, creating entries
// lazily as addresses are first called. The onNew hook fires once per
// new address under no lock ordering guarantees beyond "before the
// first Record" — the metrics registry uses it to surface the worker's
// series. A nil *WorkerMetrics ignores every call.
type WorkerMetrics struct {
	mu      sync.Mutex
	workers map[string]*WorkerStats
	onNew   func(addr string, ws *WorkerStats)
}

// NewWorkerMetrics builds the per-worker table; onNew may be nil.
func NewWorkerMetrics(onNew func(addr string, ws *WorkerStats)) *WorkerMetrics {
	return &WorkerMetrics{workers: make(map[string]*WorkerStats), onNew: onNew}
}

// Worker returns (creating if needed) the stats for a worker address.
func (m *WorkerMetrics) Worker(addr string) *WorkerStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	ws, ok := m.workers[addr]
	if !ok {
		ws = &WorkerStats{
			Chunk:  NewHistogram(DurationBuckets),
			Remote: NewHistogram(DurationBuckets),
		}
		m.workers[addr] = ws
		if m.onNew != nil {
			m.onNew(addr, ws)
		}
	}
	m.mu.Unlock()
	return ws
}
