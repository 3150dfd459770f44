package simdb

import (
	"context"
	"fmt"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/stochastic"
)

// Method selects the sampler a stored query runs with.
type Method string

// Stored-procedure sampler methods.
const (
	MethodSRS   Method = "srs"
	MethodSMLSS Method = "s-mlss"
	MethodGMLSS Method = "g-mlss"
)

// QuerySpec is a durability prediction query addressed to a stored model:
// the probability that Field reaches Beta within Horizon steps, answered
// by the chosen sampler running as a stored procedure (every simulator
// invocation dispatches through the catalog).
type QuerySpec struct {
	Model   string
	Field   string  // the observable z
	Beta    float64 // threshold: condition is z >= Beta
	Horizon int

	Method  Method
	Plan    core.Plan // MLSS level plan; ignored by SRS
	Ratio   int       // MLSS splitting ratio (default 3)
	Stop    mc.StopRule
	Seed    uint64
	Workers int
}

// RunQuery executes the stored durability query. This is the simdb
// equivalent of the paper's "implement MLSS as stored procedure" (§6.4).
func (db *DB) RunQuery(ctx context.Context, spec QuerySpec) (mc.Result, error) {
	proc, err := db.Process(spec.Model)
	if err != nil {
		return mc.Result{}, err
	}
	obs, err := db.Observer(spec.Model, spec.Field)
	if err != nil {
		return mc.Result{}, err
	}
	if spec.Stop == nil {
		return mc.Result{}, fmt.Errorf("simdb: query needs a stop rule")
	}
	ratio := spec.Ratio
	if ratio <= 0 {
		ratio = 3
	}
	switch spec.Method {
	case MethodSMLSS:
		s := &core.SMLSS{
			Proc:    proc,
			Query:   core.Query{Z: obs, Beta: spec.Beta, Horizon: spec.Horizon},
			Plan:    spec.Plan,
			Ratio:   ratio,
			Stop:    spec.Stop,
			Seed:    spec.Seed,
			Workers: spec.Workers,
		}
		return s.Run(ctx)
	case MethodSRS, MethodGMLSS:
		plan := spec.Plan
		if spec.Method == MethodSRS {
			// SRS is g-MLSS on the empty plan (§2.2).
			plan, ratio = core.Plan{}, 1
		}
		g := &core.GMLSS{
			Proc:    proc,
			Query:   core.Query{Z: obs, Beta: spec.Beta, Horizon: spec.Horizon},
			Plan:    plan,
			Ratio:   ratio,
			Stop:    spec.Stop,
			Seed:    spec.Seed,
			Workers: spec.Workers,
		}
		return g.Run(ctx)
	}
	return mc.Result{}, fmt.Errorf("simdb: unknown method %q", spec.Method)
}

// interface conformance check: the dispatching process is a Process.
var _ stochastic.Process = (*StoredProcess)(nil)
