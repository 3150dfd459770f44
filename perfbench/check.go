package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/serve"
)

// gate collects correctness failures; any one fails the run.
type gate struct {
	problems []string
}

func (g *gate) addf(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

func (g *gate) ok() bool { return len(g.problems) == 0 }

// checkAnswers requires every answer of every successful result to be
// sane and returns how many results failed outright.
func (g *gate) checkAnswers(label string, rs []result) (failed int) {
	for _, r := range rs {
		if r.err != nil {
			failed++
			continue
		}
		for _, a := range r.answers {
			if err := a.sane(); err != nil {
				g.addf("%s op %d (%s) answer %d: %v", label, r.op, r.kind, a.key, err)
			}
		}
	}
	return failed
}

// answerDigest is the digest of a window's answers.
func answerDigest(rs []result) uint64 {
	var entries []digestEntry
	for _, r := range rs {
		for _, a := range r.answers {
			entries = append(entries, digestEntry{op: uint64(r.op), key: a.key, p: a.p})
		}
	}
	return digest(entries)
}

// replayOut is the simulation-only cost of replayed query answers.
type replayOut struct {
	seconds float64 // summed over replays
	steps   int64
	answers int
}

// replayQueries re-simulates the root range [0, paths) of every every'th
// successful query answer through core.GMLSS.RunRootsBy — the sampler's
// simulation with none of its estimator loop — and requires the replay to
// take exactly the answer's sample steps. It runs workers replays at a
// time.
func (g *gate) replayQueries(ctx context.Context, reg serve.Registry, rs []result, every, workers int) replayOut {
	var (
		mu  sync.Mutex
		out replayOut
		wg  sync.WaitGroup
		sem = make(chan struct{}, workers)
	)
	for i, r := range rs {
		if r.err != nil || r.req == nil || i%every != 0 {
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(r result) {
			defer wg.Done()
			defer func() { <-sem }()
			d, steps, err := replayQuery(ctx, reg, r)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				g.addf("replaying query op %d: %v", r.op, err)
				return
			}
			if want := r.steps - r.search; steps != want {
				g.addf("replaying query op %d: %d steps, the answer sampled %d", r.op, steps, want)
			}
			out.seconds += d.Seconds()
			out.steps += steps
			out.answers++
		}(r)
	}
	wg.Wait()
	return out
}

func replayQuery(ctx context.Context, reg serve.Registry, r result) (time.Duration, int64, error) {
	req := r.req
	factory, ok := reg[req.Model]
	if !ok {
		return 0, 0, fmt.Errorf("unknown model %q", req.Model)
	}
	proc, observers, err := factory()
	if err != nil {
		return 0, 0, err
	}
	obsName := req.Observer
	if obsName == "" {
		obsName = "value"
	}
	plan, err := core.NewPlan(r.plan...)
	if err != nil {
		return 0, 0, err
	}
	g := &core.GMLSS{
		Proc:    proc,
		Query:   core.Query{Value: core.ThresholdValue(observers[obsName], req.Beta), Horizon: req.Horizon},
		Plan:    plan,
		Ratio:   3,
		Stop:    mc.Budget{Steps: 1}, // RunRootsBy never consults it
		Seed:    req.Seed,
		Workers: 1,
	}
	began := time.Now()
	res, err := g.RunRootsBy(ctx, 0, r.paths, 16)
	return time.Since(began), res.Steps, err
}
