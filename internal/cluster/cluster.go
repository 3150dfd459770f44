// Package cluster implements the worker side of the distributed MLSS
// execution sketched in §3.1 of the paper: "Since the simulations of root
// paths are independent, it is straightforward to parallelize MLSS on a
// group of machines ... We monitor the progress of simulations and
// synchronize counters on the machines periodically to produce a running
// estimate; the procedure stops until the estimate reaches the desired
// accuracy level."
//
// A Worker serves shard requests over net/rpc (stdlib, gob-encoded): it
// builds each model once, locally, from a registered factory, optionally
// pins it to a shipped live-state snapshot, simulates a range of root
// paths with g-MLSS bookkeeping, and returns the counters. The coordination side —
// fanning root ranges out, retrying dead workers, merging counters and
// stopping at the quality target — lives in internal/exec as the cluster
// execution backend, behind the same Executor seam the in-process backend
// implements. Determinism carries over: root path i draws from substream i
// regardless of which worker simulates it, so a cluster run returns
// bit-for-bit the same estimate as a single-machine run with the same
// seed.
package cluster

import (
	"context"
	"fmt"
	"net"
	"net/rpc"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
	"durability/internal/telemetry"
)

// ShardRequest asks a worker to simulate root paths [RootLo, RootHi).
//
//durlint:gobroot
type ShardRequest struct {
	Model    string
	Observer string // observer name; empty selects "value"
	// Start optionally pins the simulation to a live-state snapshot
	// instead of the model's canonical initial state — the standing-query
	// refresh path. The concrete State type must be gob-registered (see
	// internal/stochastic's registrations).
	Start      stochastic.State
	Beta       float64
	Horizon    int
	Boundaries []float64
	Ratio      int
	// Ratios optionally overrides Ratio per landing level (len must be
	// len(Boundaries) when set); batch covering plans ship their designed
	// per-level ratios here.
	Ratios []int
	Seed   uint64
	RootLo int64
	RootHi int64
	// GroupRoots fixes the counter grouping by size: every group covers
	// exactly GroupRoots (>= 1) consecutive root indices, so group
	// boundaries are identical no matter how a logical root range was
	// sharded across workers.
	GroupRoots int
}

// ShardReply carries the shard's counters back to the coordinator.
// Result.Agg doubles as the shard's plan-quality ledger delta: the
// coordinator folds replies in root-range order before booking, so
// cluster-side crossing statistics attribute exactly — no extra wire
// fields are needed.
//
//durlint:gobroot
type ShardReply struct {
	Result core.ShardResult
	// WorkerNanos is the worker's own measured simulation wall time.
	// Telemetry only: it rides back beside the counters for per-shard
	// attribution and never feeds the deterministic result.
	WorkerNanos int64
}

// Worker is the rpc service running on each machine.
type Worker struct {
	models  *Models
	workers int // ceiling on the kernels one shard round steps at once
}

// NewWorker builds a worker whose shards step at most localWorkers
// kernels at once (<= 0: GOMAXPROCS); each shard borrows only the idle
// CPUs of the worker's process, so concurrent shards share its cores.
func NewWorker(registry Registry, localWorkers int) *Worker {
	return &Worker{models: NewModels(registry), workers: localWorkers}
}

// Run answers one shard request. The method shape follows net/rpc.
func (w *Worker) Run(req ShardRequest, reply *ShardReply) error {
	m, err := w.models.Get(req.Model)
	if err != nil {
		return fmt.Errorf("cluster: worker: %w", err)
	}
	obsName := req.Observer
	if obsName == "" {
		obsName = "value"
	}
	obs, ok := m.Observers[obsName]
	if !ok {
		return fmt.Errorf("cluster: model %q has no observer %q", req.Model, obsName)
	}
	plan, err := core.NewPlan(req.Boundaries...)
	if err != nil {
		return err
	}
	if req.GroupRoots < 1 {
		return fmt.Errorf("cluster: shard request GroupRoots %d must be >= 1", req.GroupRoots)
	}
	g := &core.GMLSS{
		Proc:    m.Proc,
		Start:   req.Start,
		Query:   core.Query{Z: obs, Beta: req.Beta, Horizon: req.Horizon},
		Plan:    plan,
		Ratio:   req.Ratio,
		Ratios:  req.Ratios,
		Stop:    mc.Budget{Steps: 1}, // unused by RunRoots; validate() wants a rule
		Seed:    req.Seed,
		Workers: w.workers,
	}
	began := telemetry.Now()
	res, err := g.RunRootsBy(context.Background(), req.RootLo, req.RootHi, req.GroupRoots)
	if err != nil {
		return err
	}
	reply.Result = res
	reply.WorkerNanos = int64(telemetry.Since(began))
	return nil
}

// ServeLocal starts n workers on loopback listeners — the
// fleet-in-a-process that tests, benchmarks and examples shard against;
// real deployments run Serve on one listener per machine instead. It
// returns the worker addresses and a stop function closing every
// listener.
func ServeLocal(reg Registry, n, localWorkers int) (addrs []string, stop func(), err error) {
	var lns []net.Listener
	stop = func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, Serve(NewWorker(reg, localWorkers), ln))
	}
	return addrs, stop, nil
}

// Serve registers the worker on an rpc server and serves connections on
// the listener until it is closed. It returns the address it listens on.
func Serve(w *Worker, ln net.Listener) string {
	srv := rpc.NewServer()
	// Registration only fails for malformed services; Worker is static.
	if err := srv.RegisterName("Worker", w); err != nil {
		panic(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr().String()
}
