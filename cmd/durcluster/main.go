// Command durcluster runs the distributed MLSS execution of §3.1: one
// process per machine in worker mode, plus one coordinator that fans root
// paths out, merges counters and stops at the quality target. The
// coordinator rides the pluggable execution seam of internal/exec — the
// same cluster backend durserve mounts with -workers — so a query here is
// bit-for-bit the run a single machine would have produced at the same
// seed.
//
// Start two workers (different machines or ports):
//
//	durcluster -serve 127.0.0.1:7070
//	durcluster -serve 127.0.0.1:7071
//
// Then coordinate a query across them:
//
//	durcluster -model queue -beta 58 -horizon 500 -re 0.1 \
//	    -peers 127.0.0.1:7070,127.0.0.1:7071
//
// The built-in model registry covers the paper's evaluation models with
// their standard parameters (see internal/experiments): queue, cpp,
// volatile-queue, volatile-cpp, walk.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"durability/internal/cluster"
	coreq "durability/internal/core"
	"durability/internal/exec"
	"durability/internal/experiments"
	"durability/internal/mc"
	"durability/internal/opt"
	"durability/internal/stochastic"
)

// registry exposes the evaluation models under stable names. Every model
// publishes its canonical observable as "value", the name shard requests
// default to.
func registry() cluster.Registry {
	fromSpec := func(spec *experiments.Spec) cluster.ModelFactory {
		return func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return spec.Proc, map[string]stochastic.Observer{"value": spec.Obs}, nil
		}
	}
	return cluster.Registry{
		"queue":          fromSpec(experiments.QueueSpec()),
		"cpp":            fromSpec(experiments.CPPSpec()),
		"volatile-queue": fromSpec(experiments.VolatileQueueSpec()),
		"volatile-cpp":   fromSpec(experiments.VolatileCPPSpec()),
		"walk": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return &stochastic.RandomWalk{Sigma: 1}, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
	}
}

func main() {
	var (
		serve   = flag.String("serve", "", "worker mode: listen on this address")
		local   = flag.Int("local-workers", 4, "worker mode: ceiling on the kernels one shard steps at once; a shard borrows only idle CPUs, up to it (0 = GOMAXPROCS)")
		model   = flag.String("model", "queue", "coordinator: model name")
		beta    = flag.Float64("beta", 58, "coordinator: threshold")
		horizon = flag.Int("horizon", 500, "coordinator: time horizon")
		re      = flag.Float64("re", 0.1, "coordinator: relative-error target")
		budget  = flag.Int64("budget", 2_000_000_000, "coordinator: hard step budget")
		ratio   = flag.Int("ratio", 3, "coordinator: splitting ratio")
		seed    = flag.Uint64("seed", 1, "coordinator: random seed")
		peers   = flag.String("peers", "", "coordinator: comma-separated worker addresses")
		bounds  = flag.String("levels", "", "coordinator: comma-separated boundaries in (0,1); empty = greedy search")
	)
	flag.Parse()
	reg := registry()

	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "durcluster:", err)
			os.Exit(1)
		}
		addr := cluster.Serve(cluster.NewWorker(reg, *local), ln)
		fmt.Printf("worker serving on %s (at most %d kernels per shard; 0 = GOMAXPROCS)\n", addr, *local)
		select {} // serve until killed
	}

	if *peers == "" {
		fmt.Fprintln(os.Stderr, "durcluster: need -serve (worker) or -peers (coordinator)")
		os.Exit(1)
	}
	factory, ok := reg[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "durcluster: unknown model %q\n", *model)
		os.Exit(1)
	}
	proc, observers, err := factory()
	if err != nil {
		fmt.Fprintln(os.Stderr, "durcluster:", err)
		os.Exit(1)
	}
	obs := observers["value"]

	var boundaries []float64
	if *bounds != "" {
		for _, part := range strings.Split(*bounds, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &v); err != nil {
				fmt.Fprintf(os.Stderr, "durcluster: bad boundary %q\n", part)
				os.Exit(1)
			}
			boundaries = append(boundaries, v)
		}
	} else {
		prob := &opt.Problem{
			Proc:  proc,
			Query: coreq.Query{Value: coreq.ThresholdValue(obs, *beta), Horizon: *horizon},
			Ratio: *ratio,
			Seed:  *seed,
		}
		g, err := opt.Greedy(context.Background(), prob, opt.GreedyOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "durcluster:", err)
			os.Exit(1)
		}
		boundaries = g.Plan.Boundaries
		fmt.Printf("greedy levels: %v (search cost %d steps)\n", boundaries, g.SearchSteps)
	}

	var addrs []string
	for _, a := range strings.Split(*peers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "durcluster: -peers names no worker addresses")
		os.Exit(1)
	}
	backend := exec.NewCluster(addrs...)
	defer backend.Close()
	res, err := exec.Sample(context.Background(), backend, exec.Task{
		Proc:       proc,
		Obs:        obs,
		Model:      *model,
		Beta:       *beta,
		Horizon:    *horizon,
		Boundaries: boundaries,
		Ratio:      *ratio,
		Seed:       *seed,
	}, exec.SampleOptions{Stop: mc.Any{mc.RETarget{Target: *re}, mc.Budget{Steps: *budget}}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "durcluster:", err)
		os.Exit(1)
	}
	fmt.Printf("P = %.6g  (95%% CI %v, RE %.3g)\n", res.P, res.CI(0.95), res.RelErr())
	fmt.Printf("cost: %d steps across %d root paths, %v wall\n", res.Steps, res.Paths, res.Elapsed)
}
