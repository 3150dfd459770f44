package core

import (
	"context"
	"errors"
	"fmt"

	"durability/internal/mc"
	"durability/internal/stats"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

// SMLSS is the simple Multi-Level Splitting sampler of §3. A root path
// simulates forward watching the *next* level interval; the first time it
// lands inside that interval it splits into Ratio offspring, each of which
// recursively watches the following level. The estimator is
//
//	tau_hat = N_m / (N_0 * r^(m-1))
//
// with variance sigma^2 / (N_0 * r^(2(m-1))) where sigma^2 is the sample
// variance of per-root target-hit counts (Eq. 5–6).
//
// s-MLSS is unbiased only under the paper's "no level-skipping"
// assumption. When a path's value jumps over a level between consecutive
// steps, the landing test never fires and the path's contribution is lost
// — exactly the failure mode Table 6 of the paper demonstrates. Use GMLSS
// for processes that can skip.
type SMLSS struct {
	Proc  stochastic.Process
	Query Query
	Plan  Plan
	Ratio int // splitting ratio r (>= 1; 1 degenerates to SRS)
	Stop  mc.StopRule
	Seed  uint64

	Workers int             // ceiling on the kernels a round steps at once (<= 0: GOMAXPROCS)
	Batch   int             // root paths between stop-rule checks (default 128)
	Trace   func(mc.Result) // optional per-batch progress callback
}

// smlssRoot is the accounting for one root path's full splitting tree.
type smlssRoot struct {
	hits    int64   // target hits N_m contributed by this tree
	steps   int64   // simulator invocations spent on this tree
	entries []int64 // first-time landings per level, indexed 1..m-1
}

func (s *SMLSS) validate() error {
	if err := s.Query.Validate(); err != nil {
		return err
	}
	if s.Ratio < 1 {
		return fmt.Errorf("core: splitting ratio %d must be >= 1", s.Ratio)
	}
	return nil
}

// Run executes the sampler until the stop rule fires or the context is
// cancelled.
func (s *SMLSS) Run(ctx context.Context) (mc.Result, error) {
	res, _, err := s.run(ctx, s.Stop, kernelSMLSS)
	return res, err
}

// Trial runs the sampler under a fixed step budget and also returns the
// aggregate first-landing counts per level (indexed 1..m; m is the
// target). The level-design optimiser (internal/opt) uses trials to score
// partition plans: the paper's eval(B) of Eq. 15 equals Variance * Steps
// of a fixed-budget run, and the entry counts yield the level-advancement
// probabilities the greedy strategy bisects on.
func (s *SMLSS) Trial(ctx context.Context, budget int64) (mc.Result, []int64, error) {
	return s.run(ctx, mc.Budget{Steps: budget}, kernelSMLSS)
}

func (s *SMLSS) run(ctx context.Context, stop mc.StopRule, simulate smlssSimFunc) (mc.Result, []int64, error) {
	if stop == nil {
		return mc.Result{}, nil, errors.New("core: SMLSS requires a stop rule")
	}
	if err := s.validate(); err != nil {
		return mc.Result{}, nil, err
	}
	ctx, release := occupy(ctx)
	defer release()
	batch := s.Batch
	if batch <= 0 {
		batch = 128
	}
	m := s.Plan.M()
	proto := s.Proc.Initial()
	initLevel := s.Plan.LevelOf(s.Query.ValueOf(proto))
	if initLevel >= m {
		return mc.Result{}, nil, errors.New("core: initial state already satisfies the query")
	}
	runRange := simulate(s, width(s.Workers), proto, initLevel)
	// Scale factor r^(m-1-initLevel): total leaves per root.
	scale := 1.0
	for i := initLevel + 1; i < m; i++ {
		scale *= float64(s.Ratio)
	}

	start := telemetry.Now()
	var res mc.Result
	var hitsAcc stats.Accumulator // per-root hit counts, for the variance
	entries := make([]int64, m+1)
	next := int64(0)
	for {
		lo, hi := next, next+int64(batch)
		next = hi
		roots, err := runRange(ctx, lo, hi)
		for _, r := range roots {
			res.Steps += r.steps
			res.Hits += r.hits
			hitsAcc.Add(float64(r.hits))
			for i, c := range r.entries {
				entries[i] += c
			}
		}
		res.Paths = hitsAcc.N()
		if res.Paths > 0 {
			res.P = float64(res.Hits) / (float64(res.Paths) * scale)
			res.Variance = hitsAcc.Variance() / (float64(res.Paths) * scale * scale)
		}
		res.Elapsed = telemetry.Since(start)
		if err != nil {
			return res, entries, err
		}
		if s.Trace != nil {
			s.Trace(res)
		}
		if stop.Done(res) {
			return res, entries, nil
		}
	}
}
