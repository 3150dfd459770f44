package serve

import (
	"context"
	"reflect"
	"testing"

	"durability/internal/cluster"
	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/planstats"
	"durability/internal/stochastic"
)

// A one-shot g-MLSS answer does not depend on where its roots are
// simulated: the runner without an executor, with exec.Local and with a
// two-worker cluster returns == results and books == ledger snapshots.
// The two plans cover a single interior boundary and several; both
// report the delta-method moment variance.
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
	plans := []struct {
		name string
		plan core.Plan
	}{
		{"two-level", core.MustPlan(0.6)},
		{"three-boundary", core.MustPlan(0.4, 0.6, 0.8)},
	}
	for _, pc := range plans {
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
					Beta: 30, Horizon: 60, Ratio: 3, Seed: 7, SimWorkers: 2,
					Stop: mc.Any{mc.RETarget{Target: 0.05}, mc.Budget{Steps: 5_000_000}},
				}
				key, _ := r.PlanKeyFor(spec)
				r.Cache.Warm(key, pc.plan)
				res, meta, err := r.Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				if !meta.CacheHit || !meta.Plan.Equal(pc.plan) {
					t.Fatalf("%s: ran plan %v (cache hit %v), want the warmed %v", b.name, meta.Plan, meta.CacheHit, pc.plan)
				}
				if res.VarTime <= 0 {
					t.Fatalf("%s: the moment variance's time went unbooked", b.name)
				}
				res.Elapsed, res.VarTime = 0, 0
				snaps := r.Ledger.Snapshots()
				if i == 0 {
					// Several rounds, so the cluster cuts more than one range.
					if res.Paths <= 128 || res.Hits == 0 || len(snaps) != 1 || snaps[0].Roots != res.Paths {
						t.Fatalf("degenerate baseline: %+v, ledger %+v", res, snaps)
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
