// Command perfbench is durserve's request-to-answer benchmark. It builds
// nothing itself (run.sh builds durserve and this harness from the
// checkout), then for each workload:
//
//  1. Untraced run: starts durserve (and, for durable-ticks, a follower
//     durserve) and drives it over loopback from this one process with a
//     seeded schedule, as a closed loop — GOMAXPROCS and concurrent
//     connections both capped at nproc — and reports the end-to-end
//     metrics: set-up time, latency from send to answer, server CPU time
//     and peak RSS per operation, and simulator steps per operation. The
//     timings are reported at a reference host speed, read from a fixed
//     piece of arithmetic timed while durserve is idle (see yardstick.go).
//  2. Traced run (-trace 1): repeats the identical schedule in-process
//     against the same layers composed as durserve composes them, times
//     every call into them, and reports per-layer metrics instead.
//
// Every answer is checked (a probability inside its interval, at its
// quality target unless capped or satisfied); a traced run must serve
// answers with the same digest as the untraced one, and replayed query
// root ranges must take exactly the steps the answers sampled. Any
// mismatch exits non-zero. The last line of output is one JSON object:
//
//	{"correct":true,"attempted":283,"failed":0,"metrics":{"op_p50_ms":{"value":12.3,"unit":"ms"},...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload query-mix --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --runs 5       # stability report
//	bash perfbench/run.sh --workload durable-ticks --trace 1 --trace-out trace.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// replayEvery is how sparsely an untraced run replays its query answers
// for the steps check; the traced run replays every one.
const replayEvery = 10

// overrun bounds a window on a machine too slow to send all its ops in
// time: after overrun times its length it sends no more, and the run
// reports the ops it sent.
const overrun = 1.5

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: query-mix, batch-ladder, durable-ticks or all")
		seed         = flag.Uint64("seed", 1, "generator seed: arrivals, mix draws and every request and subscription seed (2 is held out for validating claims)")
		seconds      = flag.Int("seconds", 30, "length of the measured window, which sets how many operations it sends (see PerSecond in workload.go)")
		traceFlag    = flag.Int("trace", 0, "1 adds the in-process traced run and reports per-layer metrics instead of end-to-end ones")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans to this JSON file (a workload name is inserted before the extension under -workload all)")
		runs         = flag.Int("runs", 1, "run every selected workload this many times, alternating their order, and report each metric's median, quartiles and spread")
		durserve     = flag.String("durserve", ".bench_build/bin/durserve", "durserve binary to drive")
		work         = flag.String("work", ".bench_build/work", "work directory for data directories and daemon logs")
		bench        = flag.String("bench", "BENCHMARK.json", "benchmark definition whose bounds -runs judges spreads against")
	)
	flag.Parse()
	if *seconds < 1 || *runs < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want -seconds >= 1, -runs >= 1, -trace 0|1 and no arguments")
		return 2
	}
	var selected []workload
	if *workloadName == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		selected = []workload{w}
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := env{conns: nproc}
	var err error
	if e.durserve, err = filepath.Abs(*durserve); err == nil {
		e.work, err = filepath.Abs(*work)
	}
	if err == nil {
		_, err = os.Stat(e.durserve)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	window := time.Duration(*seconds) * time.Second
	var reports []runReport
	for r := 0; r < *runs; r++ {
		order := slices.Clone(selected)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			spans := ""
			if *traceOut != "" {
				spans = *traceOut
				if len(selected) > 1 {
					ext := filepath.Ext(spans)
					spans = spans[:len(spans)-len(ext)] + "-" + w.Name + ext
				}
			}
			rep, err := runOnce(ctx, e, w, *seed, window, *traceFlag == 1, spans)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
				return 2
			}
			rep.print(*seed, window)
			reports = append(reports, rep)
		}
	}
	out := summarize(selected, reports, *runs, *bench)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// runReport is one run of one workload.
type runReport struct {
	workload          string
	traced            bool
	problems          []string
	attempted, failed int
	metrics           metricSet
	note              string // an untraced run's host speed and timings as measured
}

func runOnce(ctx context.Context, e env, w workload, seed uint64, window time.Duration, traced bool, spansOut string) (runReport, error) {
	if err := os.RemoveAll(e.work); err != nil {
		return runReport{}, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return runReport{}, err
	}
	s := generate(w, seed, window)
	// An untraced run sets up five times for a steady setup_s; the HTTP
	// half of a traced run sets up once and adds the crash cycles.
	setups := 5
	if traced {
		setups = 1
	}
	h, err := runHTTP(ctx, e, w, s, setups, time.Duration(overrun*float64(window)), traced)
	if err != nil {
		return runReport{}, err
	}
	s.Ops = s.Ops[:len(h.drive.ops)] // the traced run replays the ops the window sent
	var g gate
	served := append(slices.Clone(h.drive.ops), h.drive.churn...)
	rep := runReport{workload: w.Name, traced: traced, attempted: len(served)}
	rep.failed = g.checkAnswers("untraced", served)
	if !traced {
		if w.Kind == kindQuery {
			g.replayQueries(ctx, buildRegistry(w.Server.params()), h.drive.ops, replayEvery, e.conns)
		}
		rep.metrics, rep.note = endToEnd(h)
	} else {
		t, err := runTraced(ctx, e, w, s, &g, spansOut)
		if err != nil {
			return runReport{}, err
		}
		tracedServed := append(slices.Clone(t.drive.ops), t.drive.churn...)
		if n := g.checkAnswers("traced", tracedServed); n > 0 {
			g.addf("traced run: %d requests failed", n)
		}
		if a, b := answerDigest(served), answerDigest(tracedServed); a != b {
			g.addf("answer digest: untraced %016x, traced %016x", a, b)
		}
		rep.metrics = perLayer(w, h, t)
	}
	rep.problems = g.problems
	if ctx.Err() != nil {
		return runReport{}, ctx.Err()
	}
	return rep, nil
}

func (r runReport) print(seed uint64, window time.Duration) {
	mode := "untraced: end-to-end metrics"
	if r.traced {
		mode = "traced: per-layer metrics"
	}
	r.metrics.print(fmt.Sprintf("== %s seed=%d window=%s (%s); %d requests, %d failed", r.workload, seed, window, mode, r.attempted, r.failed))
	if r.note != "" {
		fmt.Println("  " + r.note)
	}
	for _, p := range r.problems {
		fmt.Println("  INCORRECT:", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize folds the runs into the final JSON line: each metric's value
// (its median over -runs), keyed by name — or by workload/name when more
// than one workload ran. With -runs > 1 it first prints each metric's
// quartiles, its max–min and quartile spreads, and the quartile spread's
// verdict against the metric's bound in the benchmark definition.
func summarize(selected []workload, reports []runReport, runs int, benchFile string) jsonReport {
	out := jsonReport{Correct: true, Metrics: make(map[string]jsonMetric)}
	bounds := readBounds(benchFile)
	for _, w := range selected {
		values := make(map[string][]float64)
		var order metricSet
		for _, r := range reports {
			if r.workload != w.Name {
				continue
			}
			out.Correct = out.Correct && len(r.problems) == 0
			out.Attempted += r.attempted
			out.Failed += r.failed
			for _, m := range r.metrics {
				if m.Skip != "" {
					continue
				}
				if _, seen := values[m.Name]; !seen {
					order = append(order, m)
				}
				values[m.Name] = append(values[m.Name], m.Value)
			}
		}
		if runs > 1 {
			fmt.Printf("== %s over %d runs\n", w.Name, runs)
			fmt.Printf("  %-34s %12s %12s %12s %8s %8s %6s\n", "metric", "median", "q1", "q3", "max-min", "q3-q1", "bound")
		}
		for _, m := range order {
			v := values[m.Name]
			q1, med, q3 := quartiles(v)
			key := m.Name
			if len(selected) > 1 {
				key = w.Name + "/" + m.Name
			}
			out.Metrics[key] = jsonMetric{Value: med, Unit: m.Unit}
			if runs > 1 {
				spread := ratio(slices.Max(v)-slices.Min(v), math.Abs(med))
				iqr := ratio(q3-q1, math.Abs(med))
				verdict := ""
				if b, ok := bounds[m.Name]; ok {
					// The quartile spread is the one held to the bound.
					verdict = fmt.Sprintf("%5.1f%% stable", 100*b)
					if iqr > b {
						verdict = fmt.Sprintf("%5.1f%% UNSTABLE", 100*b)
					}
				}
				fmt.Printf("  %-34s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %s\n", m.Name, med, q1, q3, 100*spread, 100*iqr, verdict)
			}
		}
	}
	return out
}

// readBounds reads each end-to-end metric's bound from the benchmark
// definition; without one, -runs prints spreads without a verdict.
func readBounds(path string) map[string]float64 {
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := make(map[string]float64)
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &def)
	}
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "perfbench: reading bounds from %s: %v\n", path, err)
		}
		return out
	}
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
