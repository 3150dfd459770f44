package core

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"durability/internal/exact"
	"durability/internal/mc"
	"durability/internal/neural"
	"durability/internal/rng"
	"durability/internal/stochastic"
)

// The differential golden suite: every built-in model is run three
// ways — down the lane kernel with its native bulk form, down the lane
// kernel behind the stochastic.Lanes adapter (the path every black-box
// model takes), and down the reference recursion (reference_test.go)
// under the samplers' own estimator loops — and the results are compared
// with ==. The three must be bit-for-bit identical — same per-root
// counters, estimates, variance trajectories and step counts — at every
// worker count, under cancellation, and through the sharded driver.

type kernelFixture struct {
	name    string
	proc    stochastic.Process
	obs     stochastic.Observer
	beta    float64
	plan    Plan
	horizon int
	ratios  []int // optional per-level ratios (exercises ratioAt)
}

func kernelFixtures(t *testing.T) []kernelFixture {
	t.Helper()
	regime, err := stochastic.NewRegimeSwitching(0,
		[][]float64{{0.95, 0.05}, {0.2, 0.8}},
		[]float64{0.01, 0.3}, []float64{0.5, 2.0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return []kernelFixture{
		{
			name: "gbm", proc: &stochastic.GBM{S0: 100, Mu: 0.002, Sigma: 0.08},
			obs: stochastic.ScalarValue, beta: 200,
			plan: MustPlan(0.6, 0.75, 0.9), horizon: 50,
			ratios: []int{2, 3, 2},
		},
		{
			name: "walk", proc: &stochastic.RandomWalk{Start: 5, Drift: 0.2, Sigma: 2},
			obs: stochastic.ScalarValue, beta: 20,
			plan: MustPlan(0.35, 0.5, 0.65, 0.8), horizon: 60,
		},
		{
			name: "ar", proc: stochastic.NewAR([]float64{0.6, 0.3}, 1.5, 1),
			obs: stochastic.ARValue, beta: 10,
			plan: MustPlan(0.3, 0.5, 0.7, 0.9), horizon: 50,
		},
		{
			// Impulses make the value skip levels between steps, exercising
			// the skip bookkeeping on the kernel path.
			name: "cpp", proc: &stochastic.CompoundPoisson{
				U0: 10, Premium: 1, ClaimRate: 0.8, ClaimLo: 0, ClaimHi: 2,
				ImpulseProb: 0.05, ImpulseSize: 4, ImpulseAfter: 3,
			},
			obs: stochastic.ScalarValue, beta: 25,
			plan: MustPlan(0.5, 0.65, 0.8), horizon: 60,
		},
		{
			name: "chain", proc: stochastic.BirthDeathChain(12, 0.45, 2),
			obs: stochastic.ChainIndex, beta: 9,
			plan: MustPlan(4.0/9, 6.0/9, 8.0/9), horizon: 80,
		},
		{
			name: "regime", proc: regime,
			obs: stochastic.RegimeValue, beta: 15,
			plan: MustPlan(0.25, 0.5, 0.75), horizon: 50,
		},
		{
			name: "queue", proc: &stochastic.TandemQueue{
				ArrivalRate: 0.5, ServiceRate1: 0.5, ServiceRate2: 0.5,
				ImpulseProb: 0.1, ImpulseSize: 3, ImpulseAfter: 2,
			},
			obs: stochastic.Queue2Len, beta: 8,
			plan: MustPlan(0.25, 0.5, 0.75), horizon: 60,
		},
	}
}

func (fx kernelFixture) gmlss(proc stochastic.Process, workers int) *GMLSS {
	return &GMLSS{
		Proc:    proc,
		Query:   Query{Value: ThresholdValue(fx.obs, fx.beta), Horizon: fx.horizon},
		Plan:    fx.plan,
		Ratio:   3,
		Ratios:  fx.ratios,
		Stop:    mc.Budget{Steps: 30_000},
		Seed:    41,
		Workers: workers,
		Batch:   64,
	}
}

func (fx kernelFixture) smlss(proc stochastic.Process, workers int) *SMLSS {
	return &SMLSS{
		Proc:    proc,
		Query:   Query{Value: ThresholdValue(fx.obs, fx.beta), Horizon: fx.horizon},
		Plan:    fx.plan,
		Ratio:   3,
		Stop:    mc.Budget{Steps: 30_000},
		Seed:    41,
		Workers: workers,
		Batch:   64,
	}
}

// suiteWorkers are the worker counts every differential test covers.
// The reference runs once, at one worker: results must not depend on the
// worker count, so every path at every count is held to that one run.
var suiteWorkers = []int{1, 4}

// stripTimes zeroes the wall-clock fields, the only ones allowed to
// differ between two runs.
func stripTimes(r mc.Result) mc.Result {
	r.Elapsed, r.VarTime = 0, 0
	return r
}

// paths are the two production paths the suite holds to the reference.
func (fx kernelFixture) paths() map[string]stochastic.Process {
	return map[string]stochastic.Process{"native": fx.proc, "adapter": stochastic.Lanes(fx.proc)}
}

// TestKernelMatchesReferenceRoots compares per-root results, the unit
// every driver folds: each root's level counters, hits and steps.
func TestKernelMatchesReferenceRoots(t *testing.T) {
	const lo, hi = 137, 402
	ctx := context.Background()
	for _, fx := range kernelFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			proto := fx.proc.Initial()
			g := fx.gmlss(fx.proc, 1)
			initLevel := g.Plan.LevelOf(g.Query.Value(proto, 0))
			want, err := referenceGMLSS(g, 1, proto, initLevel)(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			wantS, err := referenceSMLSS(fx.smlss(fx.proc, 1), 1, proto, initLevel)(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range suiteWorkers {
				for path, proc := range fx.paths() {
					got, err := kernelGMLSS(fx.gmlss(proc, workers), workers, proto, initLevel)(ctx, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d %s: g-MLSS per-root results differ from the reference", workers, path)
					}
					gotS, err := kernelSMLSS(fx.smlss(proc, workers), workers, proto, initLevel)(ctx, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotS, wantS) {
						t.Errorf("workers=%d %s: s-MLSS per-root results differ from the reference", workers, path)
					}
				}
			}
		})
	}
}

func TestKernelMatchesScalarGMLSS(t *testing.T) {
	for _, fx := range kernelFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			if _, ok := fx.proc.(stochastic.BulkProcess); !ok {
				t.Fatalf("%s does not implement BulkProcess", fx.name)
			}
			ref, err := fx.gmlss(fx.proc, 1).run(context.Background(), referenceGMLSS)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Hits == 0 {
				t.Fatalf("fixture too rare: no hits in the reference run")
			}
			for _, workers := range suiteWorkers {
				for path, proc := range fx.paths() {
					got, err := fx.gmlss(proc, workers).Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if got, want := stripTimes(got), stripTimes(ref); got != want {
						t.Errorf("workers=%d %s: %+v != reference %+v", workers, path, got, want)
					}
				}
			}
		})
	}
}

func TestKernelMatchesScalarSMLSS(t *testing.T) {
	budget := mc.Budget{Steps: 30_000}
	for _, fx := range kernelFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			refRes, refEntries, err := fx.smlss(fx.proc, 1).run(context.Background(), budget, referenceSMLSS)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range suiteWorkers {
				for path, proc := range fx.paths() {
					res, entries, err := fx.smlss(proc, workers).Trial(context.Background(), budget.Steps)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := stripTimes(res), stripTimes(refRes); got != want {
						t.Errorf("workers=%d %s: %+v != reference %+v", workers, path, got, want)
					}
					if !reflect.DeepEqual(entries, refEntries) {
						t.Errorf("workers=%d %s: entries %v != reference %v", workers, path, entries, refEntries)
					}
				}
			}
		})
	}
}

// TestKernelMatchesScalarShards runs the sharded driver down every path
// and compares the full ShardResult — counters, groups, and costs — for
// several shard cuts, including ranges that do not start at zero.
func TestKernelMatchesScalarShards(t *testing.T) {
	ctx := context.Background()
	for _, fx := range kernelFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			for _, r := range []struct{ lo, hi int64 }{{0, 300}, {137, 402}} {
				ref, err := fx.gmlss(fx.proc, 1).runRootsBy(ctx, r.lo, r.hi, 64, referenceGMLSS)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range suiteWorkers {
					for path, proc := range fx.paths() {
						got, err := fx.gmlss(proc, workers).RunRootsBy(ctx, r.lo, r.hi, 64)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("range [%d,%d) workers=%d %s: shard result differs from the reference", r.lo, r.hi, workers, path)
						}
					}
				}
			}
		})
	}
}

// TestKernelCancelBetweenBatches cancels synchronously from the Trace
// callback, so every path observes the cancellation at the same batch
// boundary: the partial results must still be bit-for-bit equal.
func TestKernelCancelBetweenBatches(t *testing.T) {
	fx := kernelFixtures(t)[0]
	run := func(proc stochastic.Process, workers int, simulate gmlssSimFunc) mc.Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		g := fx.gmlss(proc, workers)
		g.Stop = mc.Budget{Steps: math.MaxInt64}
		g.Trace = func(r mc.Result) {
			if r.Paths >= 256 {
				cancel()
			}
		}
		res, err := g.run(ctx, simulate)
		if err != context.Canceled {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		return res
	}
	ref := run(fx.proc, 1, referenceGMLSS)
	for _, workers := range suiteWorkers {
		for path, proc := range fx.paths() {
			got := run(proc, workers, kernelGMLSS)
			if got, want := stripTimes(got), stripTimes(ref); got != want {
				t.Errorf("workers=%d %s: cancelled %+v != reference %+v", workers, path, got, want)
			}
		}
	}
}

// TestKernelCancelMidBatch cancels from inside the value function, so
// the kernel is interrupted with lanes mid-root. Wherever it stops, the
// returned result must cover a contiguous prefix of root indices whose
// statistics match an uncancelled reference run over exactly that
// prefix.
func TestKernelCancelMidBatch(t *testing.T) {
	fx := kernelFixtures(t)[1]
	for _, workers := range suiteWorkers {
		for path, proc := range fx.paths() {
			ctx, cancel := context.WithCancel(context.Background())
			g := fx.gmlss(proc, workers)
			g.Stop = mc.Budget{Steps: math.MaxInt64}
			// Small batches so several have completed before the cancel
			// lands mid-flight (the kernel keeps a whole lane frontier of
			// roots in-progress at once, so a cancel early in the first
			// batch can legitimately complete zero roots).
			g.Batch = 16
			var evals int64
			inner := g.Query.Value
			g.Query.Value = func(s stochastic.State, t int) float64 {
				if atomic.AddInt64(&evals, 1) == 100_000 {
					cancel()
				}
				return inner(s, t)
			}
			res, err := g.Run(ctx)
			cancel()
			if err != context.Canceled {
				t.Fatalf("workers=%d %s: want context.Canceled, got %v", workers, path, err)
			}
			if res.Paths == 0 {
				t.Fatalf("workers=%d %s: no completed prefix before cancellation", workers, path)
			}
			// Replay the prefix down the reference, uncancelled: groups of
			// one round, summed in order, keep the fold order identical to
			// the loop's per-round folds and merges.
			shard, err := fx.gmlss(fx.proc, 1).runRootsBy(context.Background(), 0, res.Paths, g.Batch, referenceGMLSS)
			if err != nil {
				t.Fatal(err)
			}
			m := fx.plan.M()
			initLevel := fx.plan.LevelOf(g.Query.Value(fx.proc.Initial(), 0))
			if got, want := res.P, EstimateFromCounters(shard.Agg, res.Paths, m, initLevel); got != want {
				t.Errorf("workers=%d %s: prefix estimate %v != reference replay %v", workers, path, got, want)
			}
			if got, want := res.Hits, int64(shard.Agg.Hits); got != want {
				t.Errorf("workers=%d %s: prefix hits %d != reference replay %d", workers, path, got, want)
			}
			if got, want := res.Steps, shard.Steps; got != want {
				t.Errorf("workers=%d %s: prefix steps %d != reference replay %d", workers, path, got, want)
			}
		}
	}
}

// TestKernelMatchesReferenceBlackBox runs a model with no native bulk
// form — the LSTM-MDN stock model, whose state is a boxed hidden
// activation vector — through the production path (the Lanes adapter,
// by AsBulk) and through the reference recursion. The untrained model
// swings wildly, so roots split repeatedly: spills and restores of boxed
// states are exercised on every root.
func TestKernelMatchesReferenceBlackBox(t *testing.T) {
	proc := neural.NewStockProcess(neural.NewModel(neural.Config{Hidden: 6, Layers: 1, Mixtures: 2, SeqLen: 20}, 5), 1000, 10)
	g := &GMLSS{
		Proc:    proc,
		Query:   Query{Value: ThresholdValue(neural.Price, 2000), Horizon: 30},
		Plan:    MustPlan(0.6, 0.75, 0.9),
		Ratio:   3,
		Stop:    mc.Budget{Steps: 10_000},
		Seed:    41,
		Workers: 1,
		Batch:   32,
	}
	ref, err := g.run(context.Background(), referenceGMLSS)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Hits == 0 {
		t.Fatal("fixture too rare: no hits in the reference run")
	}
	for _, workers := range suiteWorkers {
		g.Workers = workers
		got, err := g.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stripTimes(got), stripTimes(ref); got != want {
			t.Errorf("workers=%d: adapter %+v != reference %+v", workers, got, want)
		}
	}
}

// TestKernelStatisticalSanity checks the kernel against ground truth:
// for the birth-death chain the exact hitting probability is computable
// (internal/exact), and the bulk estimate must land within five
// standard errors.
func TestKernelStatisticalSanity(t *testing.T) {
	fx := kernelFixtures(t)[4] // chain
	g := fx.gmlss(fx.proc, 2)
	g.Stop = mc.Budget{Steps: 400_000}
	res, err := g.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.LatticeWalkHit(map[int]float64{+1: 0.45, -1: 0.55}, 2, 9, fx.horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	se := math.Sqrt(res.Variance)
	if diff := math.Abs(res.P - want); diff > 5*se {
		t.Fatalf("estimate %v vs exact %v: |diff| %v > 5*se %v", res.P, want, diff, 5*se)
	}
}

// countingInit counts Initial() calls. It promotes only Process's
// methods, so it is a black-box model even around a bulk one;
// countingBulkInit forwards the bulk form as well.
type countingInit struct {
	stochastic.Process
	n *atomic.Int64
}

func (c countingInit) Initial() stochastic.State {
	c.n.Add(1)
	return c.Process.Initial()
}

type countingBulkInit struct {
	countingInit
	bulk stochastic.BulkProcess
}

func (c countingBulkInit) NewStateVec(lanes int) stochastic.StateVec {
	return c.bulk.NewStateVec(lanes)
}
func (c countingBulkInit) StepVec(v stochastic.StateVec, lanes []int, t []int, src []*rng.Source) {
	c.bulk.StepVec(v, lanes, t, src)
}

// TestInitialCalledOncePerRun pins the pooled-prototype contract: a run
// builds the initial state exactly once, however many roots it
// simulates, for a scalar-only model (through the Lanes adapter) and a
// bulk one alike. Expensive initializers (neural warmup replay) must not
// re-run per root.
func TestInitialCalledOncePerRun(t *testing.T) {
	fx := kernelFixtures(t)[1]
	t.Run("scalar", func(t *testing.T) {
		var n atomic.Int64
		g := fx.gmlss(countingInit{Process: fx.proc, n: &n}, 2)
		if _, err := g.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != 1 {
			t.Fatalf("scalar-only model: Initial called %d times, want 1", got)
		}
	})
	t.Run("bulk", func(t *testing.T) {
		var n atomic.Int64
		bp := fx.proc.(stochastic.BulkProcess)
		proc := countingBulkInit{countingInit: countingInit{Process: fx.proc, n: &n}, bulk: bp}
		if _, ok := stochastic.Process(proc).(stochastic.BulkProcess); !ok {
			t.Fatal("countingBulkInit lost the bulk fast path")
		}
		g := fx.gmlss(proc, 2)
		if _, err := g.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != 1 {
			t.Fatalf("bulk path called Initial %d times, want 1", got)
		}
	})
}

// TestNewLevelCountersSingleAlloc pins the flattened counter layout:
// NewCounters allocates one backing array, not three.
func TestNewLevelCountersSingleAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		c := NewCounters(6)
		c.Hits++
	})
	if allocs > 1 {
		t.Fatalf("NewCounters allocates %v times, want 1", allocs)
	}
}

// The s-MLSS entry arena is recycled batch to batch like the counter
// arena: carving a batch no larger than the last allocates nothing, the
// per-root header included.
func TestEntryArenaCarveRecycles(t *testing.T) {
	a := entryArena{m: 4}
	a.carve(128)
	if allocs := testing.AllocsPerRun(100, func() { a.carve(128) }); allocs != 0 {
		t.Fatalf("carving a recycled batch allocates %v times, want 0", allocs)
	}
}

// TestKernelAllocsPerRoot pins the pooling work: a bulk sharded run
// must allocate O(1), not O(roots) — the arena, the lane vectors and
// the result slices, amortized over thousands of roots.
func TestKernelAllocsPerRoot(t *testing.T) {
	fx := kernelFixtures(t)[1]
	g := fx.gmlss(fx.proc, 1)
	ctx := context.Background()
	const roots = 2000
	if _, err := g.RunRootsBy(ctx, 0, roots, 512); err != nil {
		t.Fatal(err) // warm up any lazy globals
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := g.RunRootsBy(ctx, 0, roots, 512); err != nil {
			t.Fatal(err)
		}
	})
	// The budget covers the per-call fixed costs (kernel, lane vectors,
	// frame-stack and spill growth, arena, bootstrap groups) — roughly
	// 250 — and must not scale with the 2000 roots: the scalar path's
	// per-root state would alone cost >= 2 allocations per root.
	if allocs > 600 {
		t.Fatalf("bulk path allocates %v times for %d roots, want O(1) per run", allocs, roots)
	}
}
