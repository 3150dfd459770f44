// Command durquery answers a single durability prediction query from the
// command line.
//
// Examples:
//
//	# Chance the second queue of a critically loaded tandem queue backs up
//	# past 37 customers within 500 time units, to 10% relative error:
//	durquery -model queue -beta 37 -horizon 500 -re 0.1
//
//	# Same query with plain Monte Carlo, budget-capped:
//	durquery -model queue -beta 37 -horizon 500 -method srs -budget 5000000
//
//	# Insurance surplus reaching 450 within 500 periods (rare):
//	durquery -model cpp -beta 450 -horizon 500 -re 0.1 -workers 8
//
//	# A trained LSTM-MDN stock model (see cmd/trainrnn):
//	durquery -model rnn -weights model.gob -s0 1000 -beta 1550 -horizon 200
//
//	# The same rare queue query sharded over two durserve -worker
//	# processes started with the same model flags (§3.1); every line but
//	# the wall time matches the run without -peers:
//	durquery -model queue -beta 58 -horizon 500 -re 0.1 -peers host1:7070,host2:7070
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"durability/internal/exec"
	"durability/internal/experiments"
	"durability/internal/mc"
	"durability/internal/serve"
)

func main() {
	var (
		model   = flag.String("model", "queue", "model: queue | volatile-queue | cpp | volatile-cpp | walk | gbm | rnn")
		beta    = flag.Float64("beta", 26, "threshold: query is P(value >= beta before horizon)")
		horizon = flag.Int("horizon", 500, "time horizon s")
		method  = flag.String("method", "g-mlss", "sampler: g-mlss | s-mlss | srs")
		re      = flag.Float64("re", 0, "stop at this relative error (e.g. 0.1)")
		ci      = flag.Float64("ci", 0, "stop at this relative 95% CI half-width (e.g. 0.01)")
		budget  = flag.Int64("budget", 0, "stop after this many simulator invocations")
		ratio   = flag.Int("ratio", 3, "MLSS splitting ratio")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 1, "ceiling on the kernels one sampling round steps at once (only idle CPUs join)")
		weights = flag.String("weights", "", "rnn: weights file from cmd/trainrnn (the price starts at -s0)")
		peers   = flag.String("peers", "", "comma-separated shard-worker addresses (durserve -worker, same model flags); g-mlss and srs simulation is distributed across them, s-mlss stays in-process")
		params  = experiments.ModelFlags(flag.CommandLine)
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "durquery:", err)
		os.Exit(1)
	}
	proc, obs, err := buildModel(registry(*params, *weights), *model)
	if err != nil {
		fail(err)
	}
	methods := map[string]serve.Method{"g-mlss": serve.GMLSS, "s-mlss": serve.SMLSS, "srs": serve.SRS}
	m, ok := methods[*method]
	if !ok {
		fail(fmt.Errorf("unknown method %q", *method))
	}
	if *workers < 1 {
		fail(fmt.Errorf("-workers %d must be >= 1", *workers))
	}
	var stop mc.Any
	if *re > 0 {
		stop = append(stop, mc.RETarget{Target: *re})
	}
	if *ci > 0 {
		stop = append(stop, mc.CITarget{Half: *ci, Confidence: 0.95, Relative: true})
	}
	if *budget > 0 {
		stop = append(stop, mc.Budget{Steps: *budget})
	}
	if len(stop) == 0 {
		stop = append(stop, mc.RETarget{Target: 0.10})
	}
	stop = append(stop, mc.Budget{Steps: 2_000_000_000}) // the library's safety cap on unreachable targets

	// No plan cache: the query pays its own level search, as the
	// library's Run does. -peers only swaps the execution backend.
	runner := &serve.Runner{}
	if *peers != "" {
		if *model == "rnn" {
			fail(errors.New("-peers: shard workers build from the built-in table, which has no rnn"))
		}
		addrs, err := exec.ParseAddrs("peers", *peers)
		if err != nil {
			fail(err)
		}
		backend := exec.NewCluster(addrs...)
		defer backend.Close()
		runner.Exec = backend
	}
	res, _, err := runner.Run(context.Background(), serve.Spec{
		Proc:       proc,
		Obs:        obs,
		ModelID:    *model,
		ObserverID: "value",
		Beta:       *beta,
		Horizon:    *horizon,
		Method:     m,
		PlanMode:   serve.PlanAuto,
		Ratio:      *ratio,
		Seed:       *seed,
		SimWorkers: *workers,
		Stop:       stop,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("P(hit %v within %d) = %.6g\n", *beta, *horizon, res.P)
	fmt.Printf("95%% CI            = %v\n", res.CI(0.95))
	fmt.Printf("relative error    = %.3g\n", res.RelErr())
	fmt.Printf("simulator steps   = %d (%d root paths, %d hits)\n", res.Steps, res.Paths, res.Hits)
	fmt.Printf("wall time         = %v (variance eval %v)\n", res.Elapsed, res.VarTime)
}
