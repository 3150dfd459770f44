package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"

	"durability/internal/telemetry"
)

// stageSnap is one Tracer stage's running totals.
type stageSnap struct {
	sum, count float64
	steps      int64
}

// counters are the cumulative readings the traced run takes at the start
// and end of its window; their difference is the window's.
type counters struct {
	stages                      map[string]stageSnap
	tickSum, tickCount          float64 // engine update seconds (EngineMetrics.TickSeconds)
	refreshSum                  float64 // subscription refresh seconds
	planHits, planMisses        int64
	coalesced, callers          int64
	runRootsCalls, roots, steps int64
	walBytes, snapBytes         int64
	allocBytes                  float64
	gcCPU, totalCPU             float64 // runtime/metrics CPU-seconds estimates
}

var stageNames = []string{
	telemetry.StageAdmission, telemetry.StagePlanCache, telemetry.StagePlanSearch,
	telemetry.StageExec, telemetry.StageMerge, telemetry.StageQuery, telemetry.StageBatch,
}

func (s *system) counters() counters {
	c := counters{stages: make(map[string]stageSnap)}
	for _, name := range stageNames {
		st := s.tracer.Stage(name)
		h := st.Seconds()
		c.stages[name] = stageSnap{sum: h.Sum, count: float64(h.Count), steps: st.Steps()}
	}
	ts := s.metrics.TickSeconds.Snapshot()
	c.tickSum, c.tickCount = ts.Sum, float64(ts.Count)
	c.refreshSum = s.metrics.RefreshSeconds.Snapshot().Sum
	st := s.srv.Stats()
	c.planHits, c.planMisses = st.PlanHits, st.PlanMisses
	c.coalesced, c.callers = st.BatchCoalesced, st.BatchCallers
	c.runRootsCalls, c.roots, c.steps = s.ex.calls.Load(), s.ex.roots.Load(), s.ex.steps.Load()
	if s.fs != nil {
		c.walBytes, c.snapBytes = s.fs.wal.Load(), s.fs.snap.Load()
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c.allocBytes = float64(samples[0].Value.Uint64())
	c.gcCPU, c.totalCPU = samples[1].Value.Float64(), samples[2].Value.Float64()
	return c
}

func (c counters) minus(o counters) counters {
	d := c
	d.stages = make(map[string]stageSnap)
	for name, s := range c.stages {
		p := o.stages[name]
		d.stages[name] = stageSnap{s.sum - p.sum, s.count - p.count, s.steps - p.steps}
	}
	d.tickSum, d.tickCount = c.tickSum-o.tickSum, c.tickCount-o.tickCount
	d.refreshSum = c.refreshSum - o.refreshSum
	d.planHits, d.planMisses = c.planHits-o.planHits, c.planMisses-o.planMisses
	d.coalesced, d.callers = c.coalesced-o.coalesced, c.callers-o.callers
	d.runRootsCalls, d.roots, d.steps = c.runRootsCalls-o.runRootsCalls, c.roots-o.roots, c.steps-o.steps
	d.walBytes, d.snapBytes = c.walBytes-o.walBytes, c.snapBytes-o.snapBytes
	d.allocBytes = c.allocBytes - o.allocBytes
	d.gcCPU, d.totalCPU = c.gcCPU-o.gcCPU, c.totalCPU-o.totalCPU
	return d
}

// tracedOut is what the traced run measured.
type tracedOut struct {
	drive       driveOut
	spans       []span
	windowStart int64 // span clock
	windowEnd   int64
	delta       counters
	heapPerSub  float64
	replay      replayOut // query-mix: every answer's simulation, replayed
	recoverS    float64   // durable: median of three recoveries
	replayed    int

	ticks, survived, pooled, fresh, replans int64
	planInUpdates                           float64
	lagMax                                  int64
}

// runTraced repeats the schedule in-process against the same layers and
// records spans around every call into them.
func runTraced(ctx context.Context, e env, w workload, s schedule, g *gate, spansOut string) (tracedOut, error) {
	var out tracedOut
	dir := filepath.Join(e.work, "traced")
	if err := os.RemoveAll(dir); err != nil {
		return out, err
	}
	log := newSpanLog()
	sys, err := newSystem(w, dir, log)
	if err != nil {
		return out, err
	}
	defer sys.close()

	heap0 := heapAfterGC()
	if err := warm(ctx, sys, s, e.conns); err != nil {
		return out, err
	}
	if w.Subs > 0 {
		out.heapPerSub = float64(int64(heapAfterGC())-int64(heap0)) / float64(w.Subs)
	}
	c0 := sys.counters()
	out.windowStart = log.now()
	out.drive = drive(ctx, sys, w, s, 0, false)
	out.windowEnd = log.now()
	out.delta = sys.counters().minus(c0)
	if err := sys.err(); err != nil {
		return out, err
	}
	out.ticks, out.survived, out.pooled, out.fresh, out.replans = sys.ticks, sys.survived, sys.pooled, sys.fresh, sys.replans
	out.planInUpdates, out.lagMax = sys.planInUpdates, sys.lagMax

	if w.Server.Durable {
		sys.stopBackground()
		for _, st := range sys.stores {
			if err := st.Close(); err != nil {
				return out, err
			}
		}
		sys.stores = nil
		var times []float64
		for i := 0; i < 3; i++ {
			d, n, err := sys.recover(ctx)
			if err != nil {
				return out, err
			}
			times = append(times, d)
			out.replayed = n
		}
		_, out.recoverS, _ = quartiles(times)
	}
	if w.Kind == kindQuery {
		out.replay = g.replayQueries(ctx, sys.reg, out.drive.ops, 1, e.conns)
	}
	out.spans = log.snapshot()
	if spansOut != "" {
		if err := log.write(spansOut); err != nil {
			return out, err
		}
	}
	return out, nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measured is one reported metric.
type measured struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value
	Skip  string // why the value is not reported (the percentile rule)
}

type metricSet []measured

func (m *metricSet) add(name, unit string, v float64, n int) {
	*m = append(*m, measured{Name: name, Value: v, Unit: unit, N: n})
}

// pct reports the q-percentile of samples under the percentile rule;
// with no samples at all the layer was not exercised and reads 0.
func (m *metricSet) pct(name, unit string, samples []float64, q float64) {
	if len(samples) == 0 {
		m.add(name, unit, 0, 0)
		return
	}
	v, err := percentile(samples, q)
	if err == nil && math.IsInf(v, 1) {
		err = errors.New("the percentile falls on a failed request")
	}
	if err != nil {
		*m = append(*m, measured{Name: name, Unit: unit, N: len(samples), Skip: err.Error()})
		return
	}
	m.add(name, unit, v, len(samples))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the user-visible metrics of the untraced run, with
// its timings at the reference host speed (see yardstick.go), and a line
// giving the host's speed and the timings as measured.
func endToEnd(h httpOut) (metricSet, string) {
	var m metricSet
	speed := speedOf(h.yardsticks)
	_, setup, _ := quartiles(h.setup)
	m.add("setup_s", "s", setup*speed, len(h.setup))

	ops := h.drive.ops
	var lat []float64
	var steps int64
	for _, r := range ops {
		if r.err != nil {
			lat = append(lat, math.Inf(1)) // a failed request misses every latency limit
			continue
		}
		lat = append(lat, ms(r.latency()))
		steps += r.steps
	}
	scaled := make([]float64, len(lat))
	for k, l := range lat {
		scaled[k] = l * speed
	}
	m.pct("op_p50_ms", "ms", scaled, 0.50)
	m.pct("op_p90_ms", "ms", scaled, 0.90)
	cpu := ratio(ms(h.cpu), float64(len(ops)))
	m.add("cpu_ms_per_op", "ms", cpu*speed, len(ops))
	m.add("rss_mb", "MB", float64(h.hwm)/(1<<20), 1)
	m.add("steps_per_op", "steps", ratio(float64(steps), float64(len(ops))), len(ops))
	p50, _ := percentile(lat, 0.50)
	p90, _ := percentile(lat, 0.90)
	note := fmt.Sprintf("host: the yardstick's trimmed mean took %.3f ms (n=%d); as measured: setup_s %.4f, op_p50_ms %.3f, op_p90_ms %.3f, cpu_ms_per_op %.3f; %d ops in %.1f s",
		ms(yardstickRef)/speed, len(h.yardsticks), setup, p50, p90, cpu, len(ops), h.drive.elapsed.Seconds())
	return m, note
}

// perLayer computes the per-layer metrics: the traced run's spans and
// counters, and a few readings of the untraced run they are compared to.
// A layer the workload does not exercise reads 0.
func perLayer(w workload, h httpOut, t tracedOut) metricSet {
	var m metricSet
	d := t.delta
	n := len(t.drive.ops)
	fn := float64(n)

	// Window spans by name, and self times.
	inWindow := func(s span) bool { return s.Start >= t.windowStart && s.End <= t.windowEnd }
	self := selfTimes(t.spans)
	durs := make(map[string][]float64) // ms
	sums := make(map[string]float64)   // s
	var opTime, opSelf float64
	var updateSelf float64
	for _, s := range t.spans {
		if !inWindow(s) {
			continue
		}
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		sums[s.Name] += float64(s.dur()) / 1e9
		if strings.HasPrefix(s.Name, "op.") && s.Op >= 0 {
			opTime += float64(s.dur())
			opSelf += float64(self[s.ID])
		}
		if s.Name == "stream.update" {
			updateSelf += float64(self[s.ID]) / 1e9
		}
	}
	var subscribeMS []float64
	for _, s := range t.spans {
		if s.Name == "stream.subscribe" {
			subscribeMS = append(subscribeMS, float64(s.dur())/1e6)
		}
	}
	latencies := func(rs []result) []float64 {
		var out []float64
		for _, r := range rs {
			if r.err == nil {
				out = append(out, ms(r.latency()))
			}
		}
		return out
	}

	// durserve: HTTP, the hub and JSON encoding.
	hp50, herr := percentile(latencies(h.drive.ops), 0.5)
	tp50, terr := percentile(latencies(t.drive.ops), 0.5)
	if herr == nil && terr == nil {
		m.add("durserve.residual_ms_p50", "ms", hp50-tp50, n)
	} else {
		m = append(m, measured{Name: "durserve.residual_ms_p50", Unit: "ms", N: n, Skip: cmpOr(herr, terr).Error()})
	}
	var bytes int
	for _, r := range h.drive.ops {
		bytes += r.bytes
	}
	m.add("durserve.response_kb_per_op", "kB", ratio(float64(bytes)/1024, fn), n)
	m.add("durserve.encode_ms_per_op", "ms", ratio(1000*sums["durserve.encode"], fn), n)
	m.pct("durserve.update_ms_p50", "ms", h.drive.updates, 0.5)
	_, rec, _ := quartiles(h.recovery)
	m.add("durserve.recovery_s", "s", rec, len(h.recovery))

	// serve: admission, the plan cache, batch coalescing.
	envelope := slices.Concat(durs["serve.do"], durs["serve.do_batch"])
	m.pct("serve.envelope_ms_p50", "ms", envelope, 0.5)
	m.pct("serve.envelope_ms_p90", "ms", envelope, 0.9)
	adm := d.stages[telemetry.StageAdmission]
	m.add("serve.admission_ms_mean", "ms", 1000*ratio(adm.sum, adm.count), int(adm.count))
	m.add("serve.plan_cache_hit_ratio", "ratio", ratio(float64(d.planHits), float64(d.planHits+d.planMisses)), int(d.planHits+d.planMisses))
	m.add("serve.coalesced_share", "ratio", ratio(float64(d.coalesced), float64(d.callers)), int(d.callers))

	// opt: the level searches.
	search := d.stages[telemetry.StagePlanSearch]
	m.add("opt.search_s", "s", search.sum, int(search.count))
	m.add("opt.search_steps", "steps", float64(search.steps), int(search.count))

	// exec and core. Inside Server.Do the estimator loop and the
	// simulation interleave; the simulation alone is timed by replaying
	// each answer's roots (queries) or at the Executor seam (the rest).
	busy := d.stages[telemetry.StageExec].sum
	sim, simSteps := sums["core.run_roots"], float64(d.steps)
	if w.Kind == kindQuery {
		sim, simSteps = t.replay.seconds, float64(t.replay.steps)
	}
	busyN := int(d.stages[telemetry.StageExec].count)
	if w.Kind == kindTicks {
		busy, busyN = sim, int(d.runRootsCalls) // refresh top-ups call the Executor directly; their estimator is stream's
	}
	m.add("exec.busy_s", "s", busy, busyN)
	m.add("exec.estimator_s", "s", busy-sim, n)
	m.add("exec.estimator_share", "ratio", ratio(busy-sim, busy), n)
	m.add("exec.merge_s", "s", d.stages[telemetry.StageMerge].sum, int(d.stages[telemetry.StageMerge].count))
	m.add("exec.run_roots_calls_per_op", "count", ratio(float64(d.runRootsCalls), fn), n)
	m.add("exec.roots_per_call", "count", ratio(float64(d.roots), float64(d.runRootsCalls)), int(d.runRootsCalls))
	answering := sums["serve.do"] + sums["serve.do_batch"] + sums["stream.update"] + sums["stream.subscribe"]
	m.add("core.sim_s", "s", sim, n)
	m.add("core.steps_per_s", "1/s", ratio(simSteps, sim), n)
	m.add("core.sim_share", "ratio", ratio(sim, answering), n)

	// stream: refresh.
	ticks := float64(t.ticks)
	var tickSteps int64
	for _, r := range t.drive.ops {
		if r.kind == "tick" {
			tickSteps += r.steps
		}
	}
	m.pct("stream.update_ms_p50", "ms", durs["stream.update"], 0.5)
	m.pct("stream.update_ms_p90", "ms", durs["stream.update"], 0.9)
	streamSelf := updateSelf - t.planInUpdates
	m.add("stream.self_s", "s", streamSelf, len(durs["stream.update"]))
	m.add("stream.self_share", "ratio", ratio(streamSelf, sums["stream.update"]), len(durs["stream.update"]))
	m.add("stream.refresh_s", "s", d.refreshSum, int(t.ticks))
	m.add("stream.fresh_steps_per_tick", "steps", ratio(float64(tickSteps), ticks), int(t.ticks))
	m.add("stream.fresh_roots_per_tick", "count", ratio(float64(t.fresh), ticks), int(t.ticks))
	m.add("stream.survival_ratio", "ratio", ratio(float64(t.survived), float64(t.pooled)), int(t.ticks))
	m.add("stream.replans_per_tick", "count", ratio(float64(t.replans), ticks), int(t.ticks))
	m.pct("stream.subscribe_ms_p50", "ms", subscribeMS, 0.5)
	m.add("stream.heap_bytes_per_sub", "bytes", t.heapPerSub, w.Subs)

	// persist: WAL, checkpoints, recovery.
	appendsUS := scale(durs["persist.append"], 1000)
	m.pct("persist.append_us_p50", "us", appendsUS, 0.5)
	m.pct("persist.append_us_p90", "us", appendsUS, 0.90)
	m.add("persist.appends_per_tick", "count", ratio(float64(len(appendsUS)), ticks), len(appendsUS))
	m.add("persist.wal_bytes_per_tick", "bytes", ratio(float64(d.walBytes), ticks), int(t.ticks))
	ckpt := scale(durs["persist.checkpoint"], 1e-3)
	ckptMax := 0.0
	for _, v := range ckpt {
		ckptMax = max(ckptMax, v)
	}
	m.add("persist.checkpoint_s_mean", "s", mean(ckpt), len(ckpt))
	m.add("persist.checkpoint_s_max", "s", ckptMax, len(ckpt))
	m.add("persist.checkpoint_bytes_per_sub", "bytes", ratio(ratio(float64(d.snapBytes), float64(len(ckpt))), float64(w.Subs)), len(ckpt))
	recoveries := 0
	if w.Server.Durable {
		recoveries = 3
	}
	m.add("persist.recover_s", "s", t.recoverS, recoveries)
	m.add("persist.replayed_records", "count", float64(t.replayed), recoveries)

	// replicate: the follower.
	m.pct("replicate.apply_ms_p50", "ms", durs["replicate.apply"], 0.5)
	var restore float64
	for _, s := range t.spans {
		if s.Name == "replicate.restore" {
			restore += float64(s.dur()) / 1e9
		}
	}
	m.add("replicate.restore_s", "s", restore, w.Server.Shards)
	m.add("replicate.lag_records_max", "count", float64(t.lagMax), int(t.ticks))

	// The process and the harness.
	m.add("process.alloc_bytes_per_op", "bytes", ratio(d.allocBytes, fn), n)
	m.add("process.gc_cpu_share", "ratio", ratio(d.gcCPU, d.totalCPU), n)
	traced := map[kind]float64{
		kindQuery: ratio(d.stages[telemetry.StageQuery].sum, d.stages[telemetry.StageQuery].count),
		kindBatch: ratio(d.stages[telemetry.StageBatch].sum, d.stages[telemetry.StageBatch].count),
		kindTicks: ratio(d.tickSum, d.tickCount),
	}[w.Kind]
	m.add("trace.overhead_pct", "%", 100*(ratio(traced, ratio(h.stageSum, h.stageSpan))-1), n)
	m.add("trace.residual_share", "ratio", ratio(opSelf, opTime), n)
	return m
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// print writes the metrics one per line, with unit and sample count.
func (m metricSet) print(title string) {
	fmt.Println(title)
	sorted := append(metricSet(nil), m...)
	sort.SliceStable(sorted, func(i, j int) bool { return layerOrder(sorted[i].Name) < layerOrder(sorted[j].Name) })
	for _, x := range sorted {
		if x.Skip != "" {
			fmt.Printf("  %-34s %14s %-6s n=%d (%s)\n", x.Name, "-", x.Unit, x.N, x.Skip)
			continue
		}
		fmt.Printf("  %-34s %14.6g %-6s n=%d\n", x.Name, x.Value, x.Unit, x.N)
	}
}

// layerOrder keeps the printout in request order: end-to-end first, then
// the layers from the wire inwards.
func layerOrder(name string) int {
	l, _, _ := strings.Cut(name, ".")
	for i, x := range []string{"durserve", "serve", "opt", "exec", "core", "stream", "persist", "replicate", "process", "trace"} {
		if l == x {
			return i + 1
		}
	}
	return 0
}
