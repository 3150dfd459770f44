package experiments

import (
	"flag"

	"durability/internal/cluster"
	"durability/internal/stochastic"
)

// ModelParams are the built-in models' flag-settable parameters.
type ModelParams struct {
	Lambda, Mu1, Mu2                         float64 // queue
	U0, Premium, ClaimRate, ClaimLo, ClaimHi float64 // cpp
	Start, Drift, Sigma, S0                  float64 // walk, gbm
}

// DefaultModelParams are the evaluation models' standard parameters
// (QueueSpec, CPPSpec), a driftless unit-volatility walk from 0 and a
// driftless unit-volatility GBM from 1000.
func DefaultModelParams() ModelParams {
	return ModelParams{
		Lambda: 0.5, Mu1: 2, Mu2: 2,
		U0: 15, Premium: 6, ClaimRate: 0.8, ClaimLo: 5, ClaimHi: 10,
		Sigma: 1, S0: 1000,
	}
}

// ModelFlags registers the model-parameter flags on fs, defaulting to
// DefaultModelParams, and returns the parameters that parsing fs fills.
func ModelFlags(fs *flag.FlagSet) *ModelParams {
	p := DefaultModelParams()
	fs.Float64Var(&p.Lambda, "lambda", p.Lambda, "queue: arrival rate")
	fs.Float64Var(&p.Mu1, "mu1", p.Mu1, "queue: mean service time, stage 1")
	fs.Float64Var(&p.Mu2, "mu2", p.Mu2, "queue: mean service time, stage 2")
	fs.Float64Var(&p.U0, "u", p.U0, "cpp: initial surplus")
	fs.Float64Var(&p.Premium, "c", p.Premium, "cpp: per-step premium")
	fs.Float64Var(&p.ClaimRate, "claim-rate", p.ClaimRate, "cpp: claim rate")
	fs.Float64Var(&p.ClaimLo, "claim-lo", p.ClaimLo, "cpp: claim size lower bound")
	fs.Float64Var(&p.ClaimHi, "claim-hi", p.ClaimHi, "cpp: claim size upper bound")
	fs.Float64Var(&p.Start, "start", p.Start, "walk: start value")
	fs.Float64Var(&p.Drift, "drift", p.Drift, "walk/gbm: per-step drift")
	fs.Float64Var(&p.Sigma, "sigma", p.Sigma, "walk/gbm: per-step volatility")
	fs.Float64Var(&p.S0, "s0", p.S0, "gbm: initial price")
	return &p
}

// Models is the built-in model table. durserve, its shard workers and
// durquery all build from it, so a worker fleet and its coordinator
// started with the same flags build the same models. Every model
// publishes its canonical observable as "value"; the queues also publish
// both stages as "q1" and "q2". volatile-queue and volatile-cpp are the
// queue and cpp under the same flags plus §6.2's impulse jumps
// (VolatileQueueSpec, VolatileCPPSpec).
func Models(p ModelParams) cluster.Registry {
	queues := map[string]stochastic.Observer{"value": stochastic.Queue2Len, "q1": stochastic.Queue1Len, "q2": stochastic.Queue2Len}
	scalar := map[string]stochastic.Observer{"value": stochastic.ScalarValue}
	factory := func(observers map[string]stochastic.Observer, proc func() stochastic.Process) cluster.ModelFactory {
		return func() (stochastic.Process, map[string]stochastic.Observer, error) { return proc(), observers, nil }
	}
	queue := func() *stochastic.TandemQueue { return stochastic.NewTandemQueue(p.Lambda, p.Mu1, p.Mu2) }
	cpp := func() *stochastic.CompoundPoisson {
		return stochastic.NewCompoundPoisson(p.U0, p.Premium, p.ClaimRate, p.ClaimLo, p.ClaimHi)
	}
	return cluster.Registry{
		"queue":          factory(queues, func() stochastic.Process { return queue() }),
		"volatile-queue": factory(queues, func() stochastic.Process { return withQueueImpulses(queue()) }),
		"cpp":            factory(scalar, func() stochastic.Process { return cpp() }),
		"volatile-cpp":   factory(scalar, func() stochastic.Process { return withCPPImpulses(cpp()) }),
		"walk": factory(scalar, func() stochastic.Process {
			return &stochastic.RandomWalk{Start: p.Start, Drift: p.Drift, Sigma: p.Sigma}
		}),
		"gbm": factory(scalar, func() stochastic.Process { return &stochastic.GBM{S0: p.S0, Mu: p.Drift, Sigma: p.Sigma} }),
	}
}
