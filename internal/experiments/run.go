package experiments

import (
	"context"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/simdb"
)

// RunOpts parameterises one sampler execution.
type RunOpts struct {
	Scale   float64 // quality-target loosening (1 = paper fidelity)
	Cap     int64   // hard step budget (0 = 2e9)
	Seed    uint64
	Workers int
	Trace   func(mc.Result)
}

func (o RunOpts) cap() int64 {
	if o.Cap <= 0 {
		return 2_000_000_000
	}
	return o.Cap
}

// coreQuery builds the MLSS query for a setting.
func coreQuery(spec *Spec, st Setting) core.Query {
	return core.Query{Z: spec.Obs, Beta: st.Beta, Horizon: st.Horizon}
}

// RunSRS answers the class's query with simple random sampling at the
// class's quality target: g-MLSS on the empty plan (§2.2).
func RunSRS(ctx context.Context, spec *Spec, class Class, o RunOpts) (mc.Result, error) {
	return RunGMLSS(ctx, spec, class, core.Plan{}, 1, o)
}

// RunSRSBudget answers with SRS under a fixed step budget (Table 6).
func RunSRSBudget(ctx context.Context, spec *Spec, class Class, budget int64, o RunOpts) (mc.Result, error) {
	return RunGMLSSBudget(ctx, spec, class, core.Plan{}, 1, budget, o)
}

// RunSMLSS answers with simple MLSS on the given plan at the class's
// quality target.
func RunSMLSS(ctx context.Context, spec *Spec, class Class, plan core.Plan, ratio int, o RunOpts) (mc.Result, error) {
	st := spec.Setting(class)
	s := &core.SMLSS{
		Proc:    spec.Proc,
		Query:   coreQuery(spec, st),
		Plan:    plan,
		Ratio:   ratio,
		Stop:    QualityStop(class, o.Scale, o.cap()),
		Seed:    o.Seed,
		Workers: o.Workers,
		Trace:   o.Trace,
	}
	return s.Run(ctx)
}

// RunSMLSSBudget answers with s-MLSS under a fixed step budget.
func RunSMLSSBudget(ctx context.Context, spec *Spec, class Class, plan core.Plan, ratio int, budget int64, o RunOpts) (mc.Result, error) {
	st := spec.Setting(class)
	s := &core.SMLSS{
		Proc:    spec.Proc,
		Query:   coreQuery(spec, st),
		Plan:    plan,
		Ratio:   ratio,
		Stop:    mc.Budget{Steps: budget},
		Seed:    o.Seed,
		Workers: o.Workers,
	}
	return s.Run(ctx)
}

// RunGMLSS answers with general MLSS (delta-method variance) on the given
// plan at the class's quality target.
func RunGMLSS(ctx context.Context, spec *Spec, class Class, plan core.Plan, ratio int, o RunOpts) (mc.Result, error) {
	return gmlssFor(spec, class, plan, ratio, o).Run(ctx)
}

func gmlssFor(spec *Spec, class Class, plan core.Plan, ratio int, o RunOpts) *core.GMLSS {
	st := spec.Setting(class)
	return &core.GMLSS{
		Proc:    spec.Proc,
		Query:   coreQuery(spec, st),
		Plan:    plan,
		Ratio:   ratio,
		Stop:    QualityStop(class, o.Scale, o.cap()),
		Seed:    o.Seed,
		Workers: o.Workers,
		Trace:   o.Trace,
	}
}

// RunGMLSSBudget answers with g-MLSS under a fixed step budget.
func RunGMLSSBudget(ctx context.Context, spec *Spec, class Class, plan core.Plan, ratio int, budget int64, o RunOpts) (mc.Result, error) {
	st := spec.Setting(class)
	g := &core.GMLSS{
		Proc:    spec.Proc,
		Query:   coreQuery(spec, st),
		Plan:    plan,
		Ratio:   ratio,
		Stop:    mc.Budget{Steps: budget},
		Seed:    o.Seed,
		Workers: o.Workers,
	}
	return g.Run(ctx)
}

// StoreSpecModels loads the queue and CPP workloads into a fresh model
// database for the in-DBMS experiment (Table 7).
func StoreSpecModels(db *simdb.DB) error {
	if err := db.StoreModel("queue", "queue", map[string]float64{
		"lambda": 0.5, "mu1": 2, "mu2": 2,
	}); err != nil {
		return err
	}
	return db.StoreModel("cpp", "cpp", map[string]float64{
		"u": 15, "c": 6.0, "lambda": 0.8, "claim_lo": 5, "claim_hi": 10,
	})
}

// RunInDB answers a class's query through the embedded model database's
// stored-procedure path (every simulator invocation dispatches through the
// catalog), with the given method.
func RunInDB(ctx context.Context, db *simdb.DB, model string, spec *Spec, class Class, method simdb.Method, plan core.Plan, o RunOpts) (mc.Result, error) {
	st := spec.Setting(class)
	field := "q2"
	if model == "cpp" {
		field = "u"
	}
	return db.RunQuery(ctx, simdb.QuerySpec{
		Model:   model,
		Field:   field,
		Beta:    st.Beta,
		Horizon: st.Horizon,
		Method:  method,
		Plan:    plan,
		Ratio:   Ratio,
		Stop:    QualityStop(class, o.Scale, o.cap()),
		Seed:    o.Seed,
		Workers: o.Workers,
	})
}
