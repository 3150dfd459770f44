package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/opt"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

// DefaultRatioCap bounds the per-level splitting ratio a covering plan may
// assign (see opt.CoverOptions.RatioCap).
const DefaultRatioCap = 8

// MaxBatchThresholds bounds one batch's distinct thresholds — the covering
// plan carries one boundary per threshold, and an unbounded lattice would
// let one request allocate an arbitrarily deep level structure.
const MaxBatchThresholds = 256

// BatchSpec is one fully resolved batch: a set of thresholds over a single
// (model, observer, horizon) shape, answered by one shared splitting run.
type BatchSpec struct {
	Proc       stochastic.Process
	Obs        stochastic.Observer
	ModelID    string
	ObserverID string

	Betas   []float64 // the threshold lattice; order is preserved in results
	Horizon int

	Ratio      int // base splitting ratio (probe fallback; default levels)
	RatioCap   int // per-level ratio bound (0 = DefaultRatioCap)
	Seed       uint64
	SimWorkers int

	// Stop is the per-threshold quality target: the shared run continues
	// until every threshold's running prefix estimate satisfies it.
	Stop mc.Any

	// Trace, when set, observes the shared run's progress after every
	// round through the top (hardest) threshold's running result — there
	// is one run, so there is one trace, not one per threshold.
	Trace func(mc.Result)
}

func (s *BatchSpec) validate() error {
	if s.Proc == nil {
		return errors.New("serve: batch spec has no process")
	}
	if s.Obs == nil {
		return errors.New("serve: batch spec has no observer")
	}
	if len(s.Betas) == 0 {
		return errors.New("serve: batch spec has no thresholds")
	}
	for _, b := range s.Betas {
		if b <= 0 {
			return fmt.Errorf("serve: threshold %v must be positive", b)
		}
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("serve: horizon %d must be positive", s.Horizon)
	}
	if s.Ratio < 1 {
		return fmt.Errorf("serve: splitting ratio %d must be >= 1", s.Ratio)
	}
	if len(s.Stop) == 0 {
		return errors.New("serve: batch spec has no stopping rule")
	}
	return nil
}

func (s *BatchSpec) ratioCap() int {
	if s.RatioCap <= 0 {
		return DefaultRatioCap
	}
	return s.RatioCap
}

// BatchMeta reports how a batch was executed.
type BatchMeta struct {
	Plan        core.Plan // the covering plan (boundaries + per-level ratios)
	SearchSteps int64     // simulator invocations this call spent on the covering search
	CacheHit    bool      // true when the covering plan came from the cache
	SharedSteps int64     // simulator invocations of the shared sampling run
	Thresholds  int       // distinct thresholds the run answered
}

// distinctBetas returns the sorted distinct thresholds and, for every
// position of the original slice, the index of its distinct value.
func distinctBetas(betas []float64) (distinct []float64, posToDistinct []int) {
	distinct = append([]float64(nil), betas...)
	sort.Float64s(distinct)
	n := 0
	for i, b := range distinct {
		if i == 0 || b != distinct[n-1] {
			distinct[n] = b
			n++
		}
	}
	distinct = distinct[:n]
	posToDistinct = make([]int, len(betas))
	for i, b := range betas {
		posToDistinct[i] = sort.SearchFloat64s(distinct, b)
	}
	return distinct, posToDistinct
}

// requiredRatios normalizes every threshold below the top onto the value
// scale of the top threshold — the boundaries a covering plan must carry.
func requiredRatios(distinct []float64) []float64 {
	betaMax := distinct[len(distinct)-1]
	out := make([]float64, 0, len(distinct)-1)
	for _, b := range distinct[:len(distinct)-1] {
		out = append(out, b/betaMax)
	}
	return out
}

// ratioSetTag canonically encodes a required-ratio set for PlanKey.Set.
// Exact float encoding, deliberately: the required boundaries are part of
// the estimator (each threshold is read off its own boundary), so two
// batches may share a cached covering plan only when their ladders
// normalize to bit-identical ratios.
func ratioSetTag(ratios []float64) string {
	var b strings.Builder
	for i, r := range ratios {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(r, 'g', -1, 64))
	}
	return b.String()
}

// coverSearchFunc builds the covering-plan search for the spec at the
// given top threshold and seed.
func (s *BatchSpec) coverSearchFunc(beta float64, required []float64, seed uint64) SearchFunc {
	return func(ctx context.Context) (core.Plan, int64, error) {
		problem := &opt.Problem{
			Proc:    s.Proc,
			Query:   core.Query{Value: core.ThresholdValue(s.Obs, beta), Horizon: s.Horizon},
			Ratio:   s.Ratio,
			Seed:    seed,
			Workers: s.SimWorkers,
		}
		res, err := opt.Cover(ctx, problem, required, opt.CoverOptions{RatioCap: s.ratioCap()})
		return res.Plan, res.SearchSteps, err
	}
}

// RunBatch answers a whole threshold lattice with one shared g-MLSS run:
// it resolves a covering level plan whose boundaries include every
// requested threshold (through the plan cache when the runner has one,
// keyed by the threshold-set bucket), executes a single run through the
// execution backend, and derives each threshold's estimate and confidence
// interval from the shared per-level counters. Results align with
// s.Betas; duplicate thresholds share one answer. Each result's Steps and
// Paths are the shared run's totals (see exec.SampleBatch); the batch's
// cost is SharedSteps + SearchSteps, counted once in the meta.
func (r *Runner) RunBatch(ctx context.Context, s BatchSpec) ([]mc.Result, BatchMeta, error) {
	if err := s.validate(); err != nil {
		return nil, BatchMeta{}, err
	}
	distinct, posToDistinct := distinctBetas(s.Betas)
	if len(distinct) > MaxBatchThresholds {
		return nil, BatchMeta{}, fmt.Errorf("serve: batch has %d distinct thresholds (max %d)", len(distinct), MaxBatchThresholds)
	}
	betaMax := distinct[len(distinct)-1]
	required := requiredRatios(distinct)

	// Resolve the covering plan. Cached searches run at the bucket's
	// representative top threshold with a key-derived seed — but always
	// with this batch's exact required ratios (they are in the key), so
	// the cached plan is a pure function of the key and still carries
	// every boundary this batch reads an answer from.
	var (
		plan     core.Plan
		meta     BatchMeta
		coverKey PlanKey
		haveKey  bool
	)
	if r.Cache == nil {
		began := telemetry.Now()
		p, steps, err := s.coverSearchFunc(betaMax, required, s.Seed)(ctx)
		meta.SearchSteps = steps
		r.Trace.Observe(telemetry.StagePlanSearch, telemetry.Since(began), steps)
		if err != nil {
			return nil, meta, err
		}
		plan = p
	} else {
		key := r.Cache.Key(s.ModelID, s.ObserverID, betaMax, s.Horizon, s.Ratio, fmt.Sprintf("cover(%d)", s.ratioCap()), 0)
		key.Set = ratioSetTag(required)
		began := telemetry.Now()
		p, steps, hit, err := r.Cache.GetOrSearch(ctx, key, s.coverSearchFunc(r.Cache.RepresentativeBeta(betaMax), required, planSeed(key)))
		meta.SearchSteps = steps
		// Same exactness convention as ResolvePlan: only the searching
		// caller carries steps, so stage steps sum to the cache counter.
		stage := telemetry.StagePlanSearch
		if steps == 0 {
			stage = telemetry.StagePlanCache
		}
		r.Trace.Observe(stage, telemetry.Since(began), steps)
		if err != nil {
			return nil, meta, err
		}
		plan, meta.CacheHit = p, hit
		coverKey, haveKey = key, true
	}
	meta.Plan = plan
	meta.Thresholds = len(distinct)

	// Ledger booking rides the covering key (Set included), so every
	// batch sharing the lattice shape accumulates into one entry; without
	// a cache no key exists and the run books nothing.
	var book func(agg core.Counters, roots, steps int64)
	if haveKey {
		book = r.bookRun(coverKey, plan, s.Ratio)
	}

	// Locate every threshold's boundary in the covering plan.
	targets := make([]core.Target, len(distinct))
	for i, ratio := range required {
		lvl := plan.LevelOf(ratio)
		if lvl < 1 || lvl >= plan.M() || plan.Boundary(lvl) != ratio {
			return nil, meta, fmt.Errorf("serve: covering plan lost required boundary %v", ratio)
		}
		targets[i] = core.Target{Level: lvl, Stop: s.Stop}
	}
	targets[len(distinct)-1] = core.Target{Level: plan.M(), Stop: s.Stop}

	ex := r.Exec
	if ex == nil {
		ex = exec.Local{}
	}
	sp := r.Trace.Start(telemetry.StageExec)
	distinctRes, err := exec.SampleBatch(ctx, ex, exec.Task{
		Proc:       s.Proc,
		Obs:        s.Obs,
		Model:      s.ModelID,
		Observer:   s.ObserverID,
		Beta:       betaMax,
		Horizon:    s.Horizon,
		Boundaries: plan.Boundaries,
		Ratio:      s.Ratio,
		Ratios:     plan.Ratios,
		Seed:       s.Seed,
		SimWorkers: s.SimWorkers,
	}, targets, exec.SampleOptions{Trace: s.Trace, Tracer: r.Trace, Counters: book})
	if len(distinctRes) > 0 {
		meta.SharedSteps = distinctRes[0].Steps
	}
	// The shared run's steps are the exact quantity answerBatch books into
	// the server's sampleSteps counter, failed runs included.
	sp.AddSteps(meta.SharedSteps)
	sp.End()
	if err != nil {
		return nil, meta, err
	}
	results := make([]mc.Result, len(s.Betas))
	for i, di := range posToDistinct {
		results[i] = distinctRes[di]
	}
	return results, meta, nil
}
