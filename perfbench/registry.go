package main

import (
	"durability"
	"durability/internal/serve"
	"durability/internal/stochastic"
)

// modelParams are durserve's model flags.
type modelParams struct {
	lambda, mu1, mu2                        float64
	u0, premium, claimLam, claimLo, claimHi float64
	start, drift, sigma, s0                 float64
}

// defaultParams are durserve's flag defaults.
func defaultParams() modelParams {
	return modelParams{
		lambda: 0.5, mu1: 2, mu2: 2,
		u0: 15, premium: 6, claimLam: 0.8, claimLo: 5, claimHi: 10,
		sigma: 1, s0: 1000,
	}
}

// buildRegistry is durserve's model registry, so the traced run simulates
// exactly the dynamics the daemon does under the same flags.
func buildRegistry(p modelParams) serve.Registry {
	return serve.Registry{
		"queue": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			proc := durability.NewTandemQueue(p.lambda, p.mu1, p.mu2)
			return proc, map[string]stochastic.Observer{
				"value": stochastic.Queue2Len,
				"q1":    stochastic.Queue1Len,
				"q2":    stochastic.Queue2Len,
			}, nil
		},
		"cpp": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			proc := durability.NewCompoundPoisson(p.u0, p.premium, p.claimLam, p.claimLo, p.claimHi)
			return proc, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
		"walk": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			proc := &durability.RandomWalk{Start: p.start, Drift: p.drift, Sigma: p.sigma}
			return proc, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
		"gbm": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			proc := &durability.GBM{S0: p.s0, Mu: p.drift, Sigma: p.sigma}
			return proc, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
	}
}
