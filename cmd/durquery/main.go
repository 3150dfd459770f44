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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"durability"
)

func main() {
	var (
		model   = flag.String("model", "queue", "model: queue | cpp | walk | gbm | rnn")
		beta    = flag.Float64("beta", 26, "threshold: query is P(value >= beta before horizon)")
		horizon = flag.Int("horizon", 500, "time horizon s")
		method  = flag.String("method", "g-mlss", "sampler: g-mlss | s-mlss | srs")
		re      = flag.Float64("re", 0, "stop at this relative error (e.g. 0.1)")
		ci      = flag.Float64("ci", 0, "stop at this relative 95% CI half-width (e.g. 0.01)")
		budget  = flag.Int64("budget", 0, "stop after this many simulator invocations")
		ratio   = flag.Int("ratio", 3, "MLSS splitting ratio")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 1, "ceiling on the kernels one sampling round steps at once (only idle CPUs join)")

		// queue parameters
		lambda = flag.Float64("lambda", 0.5, "queue: arrival rate")
		mu1    = flag.Float64("mu1", 2, "queue: mean service time, stage 1")
		mu2    = flag.Float64("mu2", 2, "queue: mean service time, stage 2")
		// cpp parameters
		u0       = flag.Float64("u", 15, "cpp: initial surplus")
		premium  = flag.Float64("c", 6.0, "cpp: per-step premium")
		claimLam = flag.Float64("claim-rate", 0.8, "cpp: claim rate")
		claimLo  = flag.Float64("claim-lo", 5, "cpp: claim size lower bound")
		claimHi  = flag.Float64("claim-hi", 10, "cpp: claim size upper bound")
		// walk / gbm parameters
		start = flag.Float64("start", 0, "walk: start value")
		drift = flag.Float64("drift", 0, "walk: per-step drift")
		sigma = flag.Float64("sigma", 1, "walk/gbm: per-step volatility")
		s0    = flag.Float64("s0", 1000, "gbm/rnn: initial price")
		// rnn parameters
		weights = flag.String("weights", "", "rnn: weights file from cmd/trainrnn")
	)
	flag.Parse()

	proc, obs, err := buildModel(*model, modelParams{
		lambda: *lambda, mu1: *mu1, mu2: *mu2,
		u0: *u0, premium: *premium, claimLam: *claimLam, claimLo: *claimLo, claimHi: *claimHi,
		start: *start, drift: *drift, sigma: *sigma, s0: *s0, weights: *weights,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "durquery:", err)
		os.Exit(1)
	}

	opts := []durability.Option{
		durability.WithSeed(*seed),
		durability.WithWorkers(*workers),
		durability.WithSplitRatio(*ratio),
	}
	switch *method {
	case "g-mlss":
		opts = append(opts, durability.WithMethod(durability.GMLSS))
	case "s-mlss":
		opts = append(opts, durability.WithMethod(durability.SMLSS))
	case "srs":
		opts = append(opts, durability.WithMethod(durability.SRS))
	default:
		fmt.Fprintf(os.Stderr, "durquery: unknown method %q\n", *method)
		os.Exit(1)
	}
	if *re > 0 {
		opts = append(opts, durability.WithRelativeErrorTarget(*re))
	}
	if *ci > 0 {
		opts = append(opts, durability.WithCITarget(*ci, 0.95, true))
	}
	if *budget > 0 {
		opts = append(opts, durability.WithBudget(*budget))
	}

	res, err := durability.Run(context.Background(),
		proc, durability.Query{Z: obs, Beta: *beta, Horizon: *horizon}, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "durquery:", err)
		os.Exit(1)
	}
	fmt.Printf("P(hit %v within %d) = %.6g\n", *beta, *horizon, res.P)
	fmt.Printf("95%% CI            = %v\n", res.CI(0.95))
	fmt.Printf("relative error    = %.3g\n", res.RelErr())
	fmt.Printf("simulator steps   = %d (%d root paths, %d hits)\n", res.Steps, res.Paths, res.Hits)
	fmt.Printf("wall time         = %v (variance eval %v)\n", res.Elapsed, res.VarTime)
}
