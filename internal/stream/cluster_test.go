package stream

import (
	"context"
	"net"
	"testing"

	"durability/internal/cluster"
	"durability/internal/exec"
	"durability/internal/stochastic"
)

// startChainWorkers spins n in-process rpc shard workers that can rebuild
// the test chain by name.
func startChainWorkers(t *testing.T, n int) []string {
	t.Helper()
	reg := cluster.Registry{
		"chain": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return stochastic.BirthDeathChain(10, 0.45, 0), map[string]stochastic.Observer{"index": stochastic.ChainIndex}, nil
		},
	}
	addrs, stop, err := cluster.ServeLocal(reg, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return addrs
}

// slamAddr returns a "worker" whose dial succeeds but whose every call
// fails — a machine dropping right after the engine starts using it.
func slamAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// maintain drives one engine through a fixed live-state trajectory and
// returns every refreshed answer (the initial subscribe's included).
func maintain(t *testing.T, backend exec.Executor, trajectory []int) []Answer {
	t.Helper()
	env := newChainEnv()
	eng := NewEngine(Config{Exec: backend})
	if err := eng.Register("chain", env.proc, &stochastic.ChainState{I: 0}); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), env.spec())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	out := []Answer{sub.Answer()}
	for _, i := range trajectory {
		refreshes, err := eng.Update(context.Background(), "chain", &stochastic.ChainState{I: i})
		if err != nil {
			t.Fatal(err)
		}
		if len(refreshes) != 1 || refreshes[0].Err != nil {
			t.Fatalf("refreshes %+v", refreshes)
		}
		out = append(out, refreshes[0].Answer)
	}
	return out
}

// compareAnswers asserts two maintenance histories are bit-for-bit equal.
func compareAnswers(t *testing.T, label string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers vs %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Result.P != w.Result.P || g.Result.Variance != w.Result.Variance {
			t.Fatalf("%s: answer %d (P=%v, Var=%v) differs from local (P=%v, Var=%v)",
				label, i, g.Result.P, g.Result.Variance, w.Result.P, w.Result.Variance)
		}
		if g.FreshRoots != w.FreshRoots || g.FreshSteps != w.FreshSteps || g.SurvivedRoots != w.SurvivedRoots {
			t.Fatalf("%s: answer %d cost (fresh %d roots/%d steps, survived %d) differs from local (%d/%d, %d)",
				label, i, g.FreshRoots, g.FreshSteps, g.SurvivedRoots, w.FreshRoots, w.FreshSteps, w.SurvivedRoots)
		}
	}
}

// A standing query maintained over the cluster backend must be bit-for-
// bit the standing query maintained in-process: same answers, same
// variance, same pool movement, tick for tick — sharding is a placement
// decision, not a numerics change. The spec's ObserverID doubles as the
// worker-registry observer name.
func TestClusterBackedRefreshMatchesLocal(t *testing.T) {
	// The trajectory wanders enough to exercise survival pruning, top-ups
	// and (at the end) a drift-bucket crossing.
	trajectory := []int{0, 1, 0, 1, 2, 3, 2, 1, 0, 3, 4}
	local := maintain(t, exec.Local{}, trajectory)

	backend := exec.NewCluster(startChainWorkers(t, 2)...)
	defer backend.Close()
	clustered := maintain(t, backend, trajectory)
	compareAnswers(t, "cluster", clustered, local)
}

// A worker dying mid-maintenance must cost a retry, not the answer: the
// engine's refreshes keep matching the local history bit for bit.
func TestClusterBackedRefreshSurvivesDeadWorker(t *testing.T) {
	trajectory := []int{0, 1, 2, 1, 0, 2}
	local := maintain(t, exec.Local{}, trajectory)

	backend := exec.NewCluster(slamAddr(t), startChainWorkers(t, 1)[0])
	defer backend.Close()
	clustered := maintain(t, backend, trajectory)
	compareAnswers(t, "cluster with dead worker", clustered, local)
}
