package cluster

import (
	"context"
	"math"
	"net"
	"net/rpc"
	"strings"
	"testing"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// chainRegistry registers a birth-death chain whose exact hitting
// probability is computable, so worker results can be validated against
// local simulation.
func chainRegistry() (Registry, float64, int) {
	const beta = 7.0
	const horizon = 50
	reg := Registry{
		"chain": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return stochastic.BirthDeathChain(10, 0.45, 0), map[string]stochastic.Observer{"value": stochastic.ChainIndex}, nil
		},
	}
	return reg, beta, horizon
}

// startWorker spins one in-process rpc worker on a loopback listener.
func startWorker(t *testing.T, reg Registry) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return Serve(NewWorker(reg, 2), ln)
}

// localShard simulates the same root range in-process, for comparison.
func localShard(t *testing.T, proc stochastic.Process, obs stochastic.Observer, beta float64, horizon int, boundaries []float64, seed uint64, lo, hi int64, groupRoots int) core.ShardResult {
	t.Helper()
	g := &core.GMLSS{
		Proc:    proc,
		Query:   core.Query{Value: core.ThresholdValue(obs, beta), Horizon: horizon},
		Plan:    core.MustPlan(boundaries...),
		Ratio:   3,
		Stop:    mc.Budget{Steps: 1},
		Seed:    seed,
		Workers: 4,
	}
	res, err := g.RunRootsBy(context.Background(), lo, hi, groupRoots)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The rpc round trip must be a pure transport: a worker's shard result is
// bit-for-bit the local simulation of the same root range.
func TestWorkerShardMatchesLocal(t *testing.T) {
	reg, beta, horizon := chainRegistry()
	addr := startWorker(t, reg)
	boundaries := []float64{3.0 / 7, 5.0 / 7}

	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var reply ShardReply
	err = client.Call("Worker.Run", ShardRequest{
		Model: "chain", Beta: beta, Horizon: horizon,
		Boundaries: boundaries, Ratio: 3, Seed: 7,
		RootLo: 128, RootHi: 384, GroupRoots: 16,
	}, &reply)
	if err != nil {
		t.Fatal(err)
	}

	proc, observers, _ := reg["chain"]()
	want := localShard(t, proc, observers["value"], beta, horizon, boundaries, 7, 128, 384, 16)
	if reply.Result.Roots != want.Roots || reply.Result.Steps != want.Steps {
		t.Fatalf("worker shard %+v, local %+v", reply.Result, want)
	}
	if len(reply.Result.Groups) != len(want.Groups) {
		t.Fatalf("worker returned %d groups, local %d", len(reply.Result.Groups), len(want.Groups))
	}
	m := core.MustPlan(boundaries...).M()
	got := core.EstimateFromCounters(reply.Result.Agg, reply.Result.Roots, m, 0)
	local := core.EstimateFromCounters(want.Agg, want.Roots, m, 0)
	if got != local {
		t.Fatalf("worker estimate %v, local %v", got, local)
	}
}

// A pinned start state must shift the simulation's starting point: the
// worker result equals local simulation pinned to the same snapshot, not
// the model's canonical initial state.
func TestWorkerPinsStartState(t *testing.T) {
	reg, beta, horizon := chainRegistry()
	addr := startWorker(t, reg)
	boundaries := []float64{3.0 / 7, 5.0 / 7}
	start := &stochastic.ChainState{I: 2}

	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var reply ShardReply
	err = client.Call("Worker.Run", ShardRequest{
		Model: "chain", Start: start, Beta: beta, Horizon: horizon,
		Boundaries: boundaries, Ratio: 3, Seed: 7,
		RootLo: 0, RootHi: 128, GroupRoots: 16,
	}, &reply)
	if err != nil {
		t.Fatal(err)
	}

	proc, observers, _ := reg["chain"]()
	obs := observers["value"]
	pinnedLocal := localShard(t, stochastic.Pin(proc, start), obs, beta, horizon, boundaries, 7, 0, 128, 16)
	unpinned := localShard(t, proc, obs, beta, horizon, boundaries, 7, 0, 128, 16)
	m := core.MustPlan(boundaries...).M()
	initLevel := core.MustPlan(boundaries...).LevelOf(core.Query{Z: obs, Beta: beta}.ValueOf(start))
	got := core.EstimateFromCounters(reply.Result.Agg, reply.Result.Roots, m, initLevel)
	want := core.EstimateFromCounters(pinnedLocal.Agg, pinnedLocal.Roots, m, initLevel)
	if got != want {
		t.Fatalf("pinned worker estimate %v, pinned local %v", got, want)
	}
	if reply.Result.Steps == unpinned.Steps && math.Abs(got-core.EstimateFromCounters(unpinned.Agg, unpinned.Roots, m, 0)) < 1e-12 {
		t.Fatal("pinned shard is indistinguishable from the unpinned one; Start was ignored")
	}
}

func TestWorkerRejectsUnknownModel(t *testing.T) {
	reg, _, _ := chainRegistry()
	w := NewWorker(reg, 1)
	var reply ShardReply
	err := w.Run(ShardRequest{Model: "missing", Beta: 1, Horizon: 10,
		Ratio: 2, RootLo: 0, RootHi: 10}, &reply)
	if err == nil {
		t.Fatal("unknown model accepted by worker")
	}
}

func TestWorkerRejectsUnknownObserver(t *testing.T) {
	reg, beta, horizon := chainRegistry()
	w := NewWorker(reg, 1)
	var reply ShardReply
	err := w.Run(ShardRequest{Model: "chain", Observer: "nope", Beta: beta,
		Horizon: horizon, Boundaries: []float64{0.5}, Ratio: 2,
		RootLo: 0, RootHi: 10}, &reply)
	if err == nil {
		t.Fatal("unknown observer accepted by worker")
	}
}

func TestWorkerRejectsBadPlan(t *testing.T) {
	reg, beta, horizon := chainRegistry()
	w := NewWorker(reg, 1)
	var reply ShardReply
	err := w.Run(ShardRequest{Model: "chain", Beta: beta, Horizon: horizon,
		Boundaries: []float64{2.5}, Ratio: 2, RootLo: 0, RootHi: 10}, &reply)
	if err == nil {
		t.Fatal("invalid boundaries accepted by worker")
	}
}

// A request without a positive GroupRoots is refused with an error that
// names the field, not silently grouped some other way.
func TestWorkerRejectsMissingGroupRoots(t *testing.T) {
	reg, beta, horizon := chainRegistry()
	w := NewWorker(reg, 1)
	for _, groupRoots := range []int{0, -4} {
		var reply ShardReply
		err := w.Run(ShardRequest{Model: "chain", Beta: beta, Horizon: horizon,
			Boundaries: []float64{3.0 / 7, 5.0 / 7}, Ratio: 3, Seed: 1,
			RootLo: 0, RootHi: 64, GroupRoots: groupRoots}, &reply)
		if err == nil || !strings.Contains(err.Error(), "GroupRoots") {
			t.Fatalf("GroupRoots=%d: got error %v, want a refusal naming GroupRoots", groupRoots, err)
		}
	}
}

func TestRunRootsEmptyRange(t *testing.T) {
	reg, beta, horizon := chainRegistry()
	proc, observers, _ := reg["chain"]()
	g := &core.GMLSS{
		Proc:  proc,
		Query: core.Query{Value: core.ThresholdValue(observers["value"], beta), Horizon: horizon},
		Plan:  core.MustPlan(0.5),
		Ratio: 2,
		Stop:  mc.Budget{Steps: 1},
	}
	if _, err := g.RunRootsBy(context.Background(), 5, 5, 4); err == nil {
		t.Fatal("empty root range accepted")
	}
}
