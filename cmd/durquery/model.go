package main

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"durability/internal/cluster"
	"durability/internal/experiments"
	"durability/internal/neural"
	"durability/internal/stochastic"
)

// registry is the built-in model table, plus rnn when weights names a
// trained LSTM-MDN model (cmd/trainrnn) whose price starts at p.S0.
func registry(p experiments.ModelParams, weights string) cluster.Registry {
	reg := experiments.Models(p)
	if weights != "" {
		reg["rnn"] = func() (stochastic.Process, map[string]stochastic.Observer, error) {
			f, err := os.Open(weights)
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			model, err := neural.Load(f)
			if err != nil {
				return nil, nil, err
			}
			return neural.NewStockProcess(model, p.S0, 50), map[string]stochastic.Observer{"value": neural.Price}, nil
		}
	}
	return reg
}

// buildModel builds the named model and returns it with its "value"
// observer.
func buildModel(reg cluster.Registry, name string) (stochastic.Process, stochastic.Observer, error) {
	factory, ok := reg[name]
	if !ok {
		if name == "rnn" {
			return nil, nil, errors.New("rnn model needs -weights (train one with cmd/trainrnn)")
		}
		return nil, nil, fmt.Errorf("unknown model %q (want %s, or rnn with -weights)", name, strings.Join(slices.Sorted(maps.Keys(reg)), ", "))
	}
	proc, observers, err := factory()
	if err != nil {
		return nil, nil, err
	}
	return proc, observers["value"], nil
}
