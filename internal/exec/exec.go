// Package exec is the pluggable execution seam between the query-serving
// layers and the machines that simulate root paths.
//
// The paper observes (§3.1) that MLSS root paths are independent and
// "straightforward to parallelize on a group of machines". This package
// turns that observation into one narrow contract: an Executor simulates
// a root-path range [lo, hi) with g-MLSS bookkeeping and returns
// mergeable counters. Everything above the seam — the one-shot query
// runner (internal/serve), the standing-query maintenance engine
// (internal/stream), durquery's -peers coordinator — is written against the
// contract and cannot tell a laptop from a cluster; everything below it
// is a placement decision.
//
// Two backends implement the contract. Local runs in-process through
// the lane kernel of internal/core (core.GMLSS.RunRootsBy). Cluster fans
// the range out over net/rpc workers (internal/cluster), retiring dead
// workers and retrying their chunks on the survivors.
//
// The determinism invariant both backends uphold: root path i draws from
// PRNG substream i of the task seed regardless of where it is simulated,
// groups cover fixed windows of rootsPerGroup consecutive root indices,
// and results merge in root-index order. Floating-point addition
// is not associative, so the fixed grouping and merge order are load-
// bearing — they are what makes a sharded run bit-for-bit equal to a
// single-machine run at the same seed, which in turn is what makes the
// backends interchangeable under test.
package exec

import (
	"context"
	"errors"

	"durability/internal/core"
	"durability/internal/stochastic"
)

// Task is one fully resolved g-MLSS sampling assignment: the model, the
// observable, the threshold query and the level plan. It carries both the
// in-process form (Proc/Obs, used by the local backend and by coordinator-
// side estimation) and the wire form (Model/Observer names resolved
// against a worker registry, plus an optional Start snapshot) so one task
// runs unchanged on either backend.
type Task struct {
	Proc stochastic.Process  // the dynamics, simulated in-process by Local
	Obs  stochastic.Observer // the thresholded observable

	Model    string // registry name remote workers rebuild the model from
	Observer string // registry observer name (empty selects "value")

	// Start optionally pins simulations to a live-state snapshot instead
	// of the model's canonical initial state — the standing-query refresh
	// path. Remote execution gob-encodes it, so the concrete State type
	// must be registered (internal/stochastic registers the plain-data
	// ones).
	Start stochastic.State

	Beta       float64
	Horizon    int
	Boundaries []float64 // the level plan
	Ratio      int
	// Ratios optionally overrides Ratio per landing level (len must be
	// len(Boundaries) when set) — the covering plans of the batch
	// answering path carry their designed per-level ratios here. Part of
	// the numerics: both backends must apply it identically.
	Ratios     []int
	Seed       uint64
	SimWorkers int // Local: ceiling on the kernels a round steps at once (<= 0: GOMAXPROCS); workers use their own
}

func (t *Task) validate() error {
	if t.Beta <= 0 {
		return errors.New("exec: task threshold must be positive")
	}
	if t.Horizon <= 0 {
		return errors.New("exec: task horizon must be positive")
	}
	if t.Ratio < 1 {
		return errors.New("exec: task splitting ratio must be >= 1")
	}
	return nil
}

// Executor simulates root-path ranges of a task. Implementations must
// uphold the package's determinism invariant: the returned ShardResult's
// Groups cover consecutive rootsPerGroup-sized windows of [lo, hi) in
// root-index order, and Agg is their in-order sum, so the result is a
// pure function of (task, lo, hi, rootsPerGroup) — independent of worker
// count, placement and scheduling.
type Executor interface {
	// RunRoots simulates root paths [lo, hi) with g-MLSS bookkeeping and
	// returns their mergeable counters, grouped by rootsPerGroup
	// consecutive roots (1 on every estimator path: one unit per root).
	RunRoots(ctx context.Context, t Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error)
	// Name identifies the backend in stats and logs.
	Name() string
}

// Local is the in-process backend: the task's own process simulated over
// the parallel root driver of internal/core, exactly as the single-
// machine samplers do.
type Local struct{}

// Name implements Executor.
func (Local) Name() string { return "local" }

// RunRoots implements Executor.
func (Local) RunRoots(ctx context.Context, t Task, lo, hi int64, rootsPerGroup int) (core.ShardResult, error) {
	g, err := t.sampler()
	if err != nil {
		return core.ShardResult{}, err
	}
	return g.RunRootsBy(ctx, lo, hi, rootsPerGroup)
}

// FoldRoots simulates root paths [lo, hi) of t on ex and folds each, in
// root order, into into — an empty pool of the task's plan shape —
// adding their roots and steps: the RootRange every estimator loop over
// a backend runs (Sample, SampleBatch, a standing query's top-ups).
//
// Local (and a nil ex) folds roots in place as its kernels finish them
// (core.GMLSS.FoldRoots), with no per-root unit built. Every other
// backend returns one unit per root from RunRoots(…, 1), the form units
// cross the wire in, and they go through core.Pool.FoldUnits — the same
// per-root fold in the same order, so into ends bit-for-bit the same on
// every backend. On an error into may hold the range's completed prefix.
func FoldRoots(ctx context.Context, ex Executor, t Task, lo, hi int64, into *core.Pool) error {
	if _, local := ex.(Local); local || ex == nil {
		g, err := t.sampler()
		if err != nil {
			return err
		}
		return g.FoldRoots(ctx, lo, hi, into)
	}
	shard, err := ex.RunRoots(ctx, t, lo, hi, 1)
	if ferr := into.FoldUnits(shard); ferr != nil {
		return ferr
	}
	return err
}

// sampler builds the in-process g-MLSS sampler of the task, without a
// stop rule: the simulation Local runs, and the estimator loop Sample and
// SampleBatch run over any backend. A pinned task's start state becomes
// the sampler's Start, read in place.
func (t *Task) sampler() (core.GMLSS, error) {
	if err := t.validate(); err != nil {
		return core.GMLSS{}, err
	}
	if t.Proc == nil || t.Obs == nil {
		return core.GMLSS{}, errors.New("exec: in-process sampling needs the task's process and observer")
	}
	plan, err := core.NewPlan(t.Boundaries...)
	if err != nil {
		return core.GMLSS{}, err
	}
	return core.GMLSS{
		Proc:    t.Proc,
		Start:   t.Start,
		Query:   core.Query{Z: t.Obs, Beta: t.Beta, Horizon: t.Horizon},
		Plan:    plan,
		Ratio:   t.Ratio,
		Ratios:  t.Ratios,
		Seed:    t.Seed,
		Workers: t.SimWorkers,
	}, nil
}
