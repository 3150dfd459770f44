package serve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"durability/internal/cluster"
	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/planstats"
	"durability/internal/stochastic"
)

// A one-shot answer does not depend on where its roots are simulated:
// the runner without an executor, with exec.Local and with a two-worker
// cluster returns == results and books == ledger snapshots, each booking
// exactly the run's roots and sampling steps. The two g-MLSS plans cover
// a single interior boundary and several; both report the delta-method
// moment variance. SRS runs on the empty plan, searches nothing and books
// nothing.
func TestRunnerOneShotSameOnEveryBackend(t *testing.T) {
	newWalk := func() (stochastic.Process, map[string]stochastic.Observer, error) {
		return &stochastic.RandomWalk{Start: 5, Drift: 0.2, Sigma: 2}, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
	}
	addrs, stop, err := cluster.ServeLocal(cluster.Registry{"walk": newWalk}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	clus := exec.NewCluster(addrs...)
	defer clus.Close()

	backends := []struct {
		name string
		ex   exec.Executor
	}{{"none", nil}, {"local", exec.Local{}}, {"cluster", clus}}
	cases := []struct {
		name   string
		method Method
		plan   core.Plan
	}{
		{"two-level", GMLSS, core.MustPlan(0.6)},
		{"three-boundary", GMLSS, core.MustPlan(0.4, 0.6, 0.8)},
		{"srs", SRS, core.Plan{}},
	}
	for _, pc := range cases {
		t.Run(pc.name, func(t *testing.T) {
			var wantRes mc.Result
			var wantSnaps []planstats.Snapshot
			for i, b := range backends {
				proc, obs, err := newWalk()
				if err != nil {
					t.Fatal(err)
				}
				r := &Runner{Cache: NewPlanCache(0), Exec: b.ex, Ledger: planstats.NewLedger()}
				spec := Spec{
					Proc: proc, Obs: obs["value"], ModelID: "walk", ObserverID: "value",
					Beta: 30, Horizon: 60, Method: pc.method, Ratio: 3, Seed: 7, SimWorkers: 2,
					Stop: mc.Any{mc.RETarget{Target: 0.05}, mc.Budget{Steps: 5_000_000}},
				}
				if pc.method == GMLSS {
					key, _ := r.PlanKeyFor(spec)
					r.Cache.Warm(key, pc.plan)
				}
				res, meta, err := r.Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				if meta.CacheHit != (pc.method == GMLSS) || !meta.Plan.Equal(pc.plan) || meta.SearchSteps != 0 {
					t.Fatalf("%s: ran plan %v (cache hit %v, %d search steps), want %v", b.name, meta.Plan, meta.CacheHit, meta.SearchSteps, pc.plan)
				}
				if res.VarTime <= 0 {
					t.Fatalf("%s: the moment variance's time went unbooked", b.name)
				}
				res.Elapsed, res.VarTime = 0, 0
				// The ledger books what a g-MLSS run sampled, and SRS nothing.
				snaps := r.Ledger.Snapshots()
				if pc.method == SRS {
					if len(snaps) != 0 {
						t.Fatalf("%s: SRS booked %+v", b.name, snaps)
					}
				} else if len(snaps) != 1 || snaps[0].Roots != res.Paths || snaps[0].Steps != res.Steps {
					t.Fatalf("%s: ledger %+v, want one plan booking the run's %d roots and %d sampling steps",
						b.name, snaps, res.Paths, res.Steps)
				}
				if i == 0 {
					// Several rounds, so the cluster cuts more than one range.
					if res.Paths <= 128 || res.Hits == 0 {
						t.Fatalf("degenerate baseline: %+v", res)
					}
					wantRes, wantSnaps = res, snaps
					continue
				}
				if res != wantRes {
					t.Errorf("%s: result %+v != no-executor %+v", b.name, res, wantRes)
				}
				if !reflect.DeepEqual(snaps, wantSnaps) {
					t.Errorf("%s: ledger %+v != no-executor %+v", b.name, snaps, wantSnaps)
				}
			}
		})
	}
}

// SRS checks its context inside a round, as g-MLSS does: a query whose
// single root path would take 10^6 steps with no hit in sight ends at its
// deadline rather than after a round of such paths.
func TestRunnerSRSHonoursDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	began := time.Now()
	_, _, err := (&Runner{}).Run(ctx, Spec{
		Proc: &stochastic.RandomWalk{Drift: 0, Sigma: 1}, Obs: stochastic.ScalarValue,
		Beta: 1e9, Horizon: 1_000_000, Method: SRS, Ratio: 3, Seed: 1, SimWorkers: 1,
		Stop: mc.Any{mc.Budget{Steps: math.MaxInt64}},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(began); took > time.Second {
		t.Fatalf("a 100ms deadline returned after %v", took)
	}
}

// A saturated pool lends nothing. With GOMAXPROCS queries in flight —
// the Server's default PoolWorkers — every CPU already steps a query's
// kernel, so no round may borrow a helper. A barrier in each query's
// Trace holds every query inside its loop until all have finished the
// round, so every round after the first starts with all of them
// counted. A lone query on the same CPUs does borrow, so the zero is not
// vacuous.
func TestBusyPoolLendsNoKernels(t *testing.T) {
	const procs = 4
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	spec := func(trace func(mc.Result)) Spec {
		return Spec{
			Proc: &stochastic.RandomWalk{Start: 5, Drift: 0.2, Sigma: 2}, Obs: stochastic.ScalarValue,
			Beta: 30, Horizon: 60, Ratio: 3, Seed: 7,
			PlanMode: PlanFixed, Plan: core.MustPlan(0.4, 0.6, 0.8),
			Stop:  mc.Any{mc.RETarget{Target: 0.03}, mc.Budget{Steps: 50_000_000}},
			Trace: trace,
		}
	}
	r := &Runner{}
	ctx := context.Background()

	before := core.LentKernels()
	if _, _, err := r.Run(ctx, spec(nil)); err != nil {
		t.Fatal(err)
	}
	if core.LentKernels() == before {
		t.Fatal("a lone query borrowed no idle CPU")
	}

	var (
		mu         sync.Mutex
		cond       = sync.NewCond(&mu)
		arrived    int
		rounds     int
		afterFirst int64
	)
	barrier := func(mc.Result) {
		mu.Lock()
		defer mu.Unlock()
		round := rounds
		if arrived++; arrived == procs {
			arrived, rounds = 0, rounds+1
			if rounds == 1 {
				afterFirst = core.LentKernels()
			}
			cond.Broadcast()
			return
		}
		for rounds == round {
			cond.Wait()
		}
	}
	var wg sync.WaitGroup
	for range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := r.Run(ctx, spec(barrier)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if rounds < 3 {
		t.Fatalf("degenerate load: the queries ran %d rounds", rounds)
	}
	if lent := core.LentKernels() - afterFirst; lent != 0 {
		t.Fatalf("%d helper kernels lent over %d rounds with %d queries in flight on %d CPUs", lent, rounds-1, procs, procs)
	}
}
