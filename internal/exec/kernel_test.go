package exec

import (
	"context"
	"testing"

	"durability/internal/mc"
	"durability/internal/stochastic"
)

// TestClusterKernelMatchesScalarLocal pins the kernel's equality
// invariant across the execution seam: cluster workers instantiate the
// registered model and step it through its native bulk form, while the
// local baseline steps it one scalar Step at a time behind the
// stochastic.Lanes adapter. The two must agree bit-for-bit — the same
// invariant the in-core differential suite checks, here proven through
// RPC sharding, gob transport, and the coordinator's merge order.
func TestClusterKernelMatchesScalarLocal(t *testing.T) {
	addrs := startWorkers(t, chainRegistry(), 3)
	task := chainTask()
	opt := SampleOptions{Stop: mc.Budget{Steps: 300_000}}

	adapterTask := task
	adapterTask.Proc = stochastic.Lanes(task.Proc)
	adapter, err := Sample(context.Background(), Local{}, adapterTask, opt)
	if err != nil {
		t.Fatal(err)
	}

	backend := NewCluster(addrs...)
	defer backend.Close()
	native, err := Sample(context.Background(), backend, task, opt)
	if err != nil {
		t.Fatal(err)
	}

	if native.P != adapter.P || native.Variance != adapter.Variance {
		t.Fatalf("cluster native (P=%v, Var=%v) differs from local adapter (P=%v, Var=%v)",
			native.P, native.Variance, adapter.P, adapter.Variance)
	}
	if native.Steps != adapter.Steps || native.Paths != adapter.Paths || native.Hits != adapter.Hits {
		t.Fatalf("cluster native cost (%d steps, %d paths, %d hits) differs from local adapter (%d, %d, %d)",
			native.Steps, native.Paths, native.Hits, adapter.Steps, adapter.Paths, adapter.Hits)
	}
	if adapter.Hits == 0 {
		t.Fatal("degenerate comparison: no hits")
	}
}
