package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"durability/internal/mc"
	"durability/internal/stochastic"
)

// The reuse-safety suite: one goroutine's calls run back to back through
// the free list's workspace — models, plans, start states and seeds
// changing from call to call, with calls cancelled mid-chunk in between —
// and every answer must be == the same call on a fresh workspace and ==
// the reference recursion.

// freshGMLSS is kernelGMLSS on a workspace of its own, never taken from
// nor returned to the free list.
func freshGMLSS(g *GMLSS, ceiling int, proto stochastic.State, initLevel int) gmlssSim {
	ws := &gmlssWorkspace{}
	ws.bind(g, stochastic.AsBulk(g.Proc), ceiling, proto, initLevel)
	return freshSim{ws}
}

type freshSim struct{ *gmlssWorkspace }

func (freshSim) release() {}

// foldWith folds roots [lo, hi) into a new pool through simulate: FoldRoots
// with the simulation swapped.
func foldWith(g *GMLSS, lo, hi int64, simulate gmlssSimFunc) (Pool, error) {
	proto, initLevel, err := g.start()
	if err != nil {
		return Pool{}, err
	}
	pool := NewPool(g.Plan.M(), initLevel)
	sim := simulate(g, width(g.Workers), proto, initLevel)
	defer sim.release()
	err = foldPool(context.Background(), sim, lo, hi, &pool)
	return pool, err
}

// reuseCall is one call of the sequence: a sampler and what to run on it.
type reuseCall struct {
	name    string
	sampler func(workers int) *GMLSS
	kind    string // "fold", "shard", "run" or "cancel"
	lo, hi  int64
	per     int
}

func reuseCalls(t *testing.T) []reuseCall {
	fx := kernelFixtures(t)
	gbm, chain, queue := fx[0], fx[4], fx[6]
	with := func(fx kernelFixture, adapt bool, plan Plan, start stochastic.State, seed uint64) func(int) *GMLSS {
		return func(workers int) *GMLSS {
			proc := fx.proc
			if adapt {
				proc = stochastic.Lanes(proc)
			}
			fx.plan = plan
			if len(fx.ratios) != plan.M()-1 {
				fx.ratios = nil
			}
			g := fx.gmlss(proc, workers)
			g.Start, g.Seed = start, seed
			return g
		}
	}
	gbmPlan, chainPlan, queuePlan := gbm.plan, chain.plan, queue.plan
	return []reuseCall{
		{name: "gbm fold", sampler: with(gbm, false, gbmPlan, nil, 41), kind: "fold", lo: 0, hi: 300},
		{name: "gbm shard from 130", sampler: with(gbm, false, gbmPlan, &stochastic.Scalar{V: 130}, 7), kind: "shard", lo: 137, hi: 402, per: 16},
		{name: "gbm cancel", sampler: with(gbm, false, gbmPlan, nil, 5), kind: "cancel"},
		{name: "gbm run after cancel", sampler: with(gbm, false, MustPlan(0.7, 0.9), nil, 9), kind: "run"},
		{name: "chain fold, m 2, from 4", sampler: with(chain, false, MustPlan(6.0/9), &stochastic.ChainState{I: 4}, 3), kind: "fold", lo: 64, hi: 500},
		{name: "chain run", sampler: with(chain, false, chainPlan, nil, 3), kind: "run"},
		{name: "chain cancel", sampler: with(chain, false, chainPlan, &stochastic.ChainState{I: 5}, 8), kind: "cancel"},
		{name: "chain shard from 6", sampler: with(chain, false, chainPlan, &stochastic.ChainState{I: 6}, 12), kind: "shard", lo: 0, hi: 257, per: 1},
		{name: "queue adapter fold", sampler: with(queue, true, queuePlan, nil, 41), kind: "fold", lo: 0, hi: 300},
		{name: "queue adapter cancel", sampler: with(queue, true, queuePlan, nil, 2), kind: "cancel"},
		{name: "queue adapter run from (2,3)", sampler: with(queue, true, MustPlan(0.5, 0.75), &stochastic.QueueState{Q1: 2, Q2: 3}, 17), kind: "run"},
		{name: "gbm fold again, m 5, from 160", sampler: with(gbm, false, MustPlan(0.6, 0.7, 0.8, 0.9), &stochastic.Scalar{V: 160}, 23), kind: "fold", lo: 1000, hi: 1300},
	}
}

// answer runs one call through simulate; nil simulate takes the public
// entry point, and so the free list's workspace.
func (c reuseCall) answer(t *testing.T, workers int, simulate gmlssSimFunc) any {
	t.Helper()
	g := c.sampler(workers)
	ctx := context.Background()
	var (
		got any
		err error
	)
	switch c.kind {
	case "fold":
		if simulate == nil {
			_, initLevel, serr := g.start()
			if serr != nil {
				t.Fatal(serr)
			}
			pool := NewPool(g.Plan.M(), initLevel)
			err = g.FoldRoots(ctx, c.lo, c.hi, &pool)
			got = pool
		} else {
			got, err = foldWith(g, c.lo, c.hi, simulate)
		}
	case "shard":
		if simulate == nil {
			got, err = g.RunRootsBy(ctx, c.lo, c.hi, c.per)
		} else {
			got, err = g.runRootsBy(ctx, c.lo, c.hi, c.per, simulate)
		}
	case "run":
		var res mc.Result
		if simulate == nil {
			res, err = g.Run(ctx)
		} else {
			res, err = g.run(ctx, simulate)
		}
		got = stripTimes(res)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return got
}

// cancelMidChunk runs the call's sampler until its observer has been
// evaluated enough times to land mid-chunk, then cancels, leaving
// lanes mid-root with splits pending on their frame stacks.
func (c reuseCall) cancelMidChunk(t *testing.T, workers int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := c.sampler(workers)
	g.Stop = mc.Budget{Steps: math.MaxInt64}
	var evals atomic.Int64
	inner := g.Query.Z
	g.Query.Z = func(s stochastic.State) float64 {
		if evals.Add(1) == 20_000 {
			cancel()
		}
		return inner(s)
	}
	if _, err := g.Run(ctx); err != context.Canceled {
		t.Fatalf("%s: want context.Canceled, got %v", c.name, err)
	}
}

func runReuseSequence(t *testing.T, workers int) {
	t.Helper()
	for _, c := range reuseCalls(t) {
		if c.kind == "cancel" {
			c.cancelMidChunk(t, workers)
			continue
		}
		reused := c.answer(t, workers, nil)
		if fresh := c.answer(t, workers, freshGMLSS); !reflect.DeepEqual(reused, fresh) {
			t.Errorf("workers=%d %s: reused workspace %+v != fresh workspace %+v", workers, c.name, reused, fresh)
		}
		if ref := c.answer(t, 1, referenceGMLSS); !reflect.DeepEqual(reused, ref) {
			t.Errorf("workers=%d %s: reused workspace %+v != reference %+v", workers, c.name, reused, ref)
		}
	}
}

// TestWorkspaceReuseKeepsAnswers runs the sequence at width 1, where one
// workspace serves every call in turn.
func TestWorkspaceReuseKeepsAnswers(t *testing.T) {
	runReuseSequence(t, 1)
}

// TestWorkspaceReuseKeepsAnswersLending runs it with lending forced at
// GOMAXPROCS 4, so helper kernels are rebound and cancelled too.
func TestWorkspaceReuseKeepsAnswersLending(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := LentKernels()
	runReuseSequence(t, 0)
	if LentKernels() == before {
		t.Fatal("no helper kernel joined a round on four idle CPUs")
	}
}

// sliceModel is a black-box model held by value with a slice field: a
// model value == cannot compare.
type sliceModel struct {
	stochastic.Process
	tags []string
}

// A workspace never matches a model it cannot compare, and reuse around
// one neither panics nor changes an answer.
func TestWorkspaceReuseUncomparableModel(t *testing.T) {
	fx := kernelFixtures(t)[4]
	model := sliceModel{Process: fx.proc, tags: []string{"chain"}}
	if sameModel(stochastic.AsBulk(model), stochastic.AsBulk(model)) {
		t.Fatal("sameModel matched a model value that == cannot compare")
	}
	if !sameModel(stochastic.AsBulk(fx.proc), stochastic.AsBulk(fx.proc)) || !sameModel(stochastic.Lanes(fx.proc), stochastic.Lanes(fx.proc)) {
		t.Fatal("sameModel did not match a model with itself")
	}
	g := fx.gmlss(model, 1)
	first := reuseCall{name: "uncomparable", sampler: func(int) *GMLSS { return g }, kind: "shard", lo: 0, hi: 200, per: 1}
	want := first.answer(t, 1, referenceGMLSS)
	for range 2 {
		if got := first.answer(t, 1, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("uncomparable model through the free list %+v != reference %+v", got, want)
		}
	}
}
