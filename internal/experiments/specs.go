// Package experiments defines the paper's evaluation workloads (§6) and
// the runners that regenerate every table and figure. It is shared by
// cmd/experiments (full-scale runs, EXPERIMENTS.md data) and the
// repository-root benchmarks (scaled-down testing.B harnesses). Its
// built-in model table (Models, ModelFlags) is the one durserve, its
// shard workers and durquery build from.
//
// Query settings follow Table 2 of the paper with thresholds recalibrated
// to this repository's model dynamics so that each query class lands in
// the paper's answer-probability band (Medium ~15-20%, Small ~5%,
// Tiny ~0.1-0.3%, Rare ~0.03%); the calibration is documented in
// EXPERIMENTS.md. Everything else — horizons, volatile impulse design,
// quality targets (1% relative CI at 95% for Medium/Small, 10% relative
// error for Tiny/Rare), splitting ratio 3, balanced-growth plans — follows
// the paper.
package experiments

import (
	"context"
	"sync"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/neural"
	"durability/internal/opt"
	"durability/internal/rng"
	"durability/internal/stochastic"
)

// Class is a query-difficulty class from Table 2.
type Class string

// Query classes.
const (
	Medium Class = "Medium"
	Small  Class = "Small"
	Tiny   Class = "Tiny"
	Rare   Class = "Rare"
)

// Setting is one durability query from Table 2: a model, a horizon, a
// threshold, and the class's quality target.
type Setting struct {
	Class    Class
	Horizon  int
	Beta     float64
	TauPrior float64 // calibrated answer magnitude; used for balanced plans and REs
	Levels   int     // balanced-plan level count for this class
}

// Spec is one evaluation model with its query settings.
type Spec struct {
	Name     string
	Proc     stochastic.Process
	Obs      stochastic.Observer
	Settings []Setting
}

// Setting returns the spec's setting for a class; it panics for classes
// the spec does not define (mirrors the paper: the RNN model only has
// Small and Tiny).
func (s *Spec) Setting(c Class) Setting {
	for _, st := range s.Settings {
		if st.Class == c {
			return st
		}
	}
	panic("experiments: " + s.Name + " has no class " + string(c))
}

// Ratio is the default splitting ratio used throughout §6 (r = 3).
const Ratio = 3

// QueueSpec is the tandem-queue workload: criticality (rho = 1) makes
// large queue-2 backlogs rare in exactly the paper's probability bands.
func QueueSpec() *Spec {
	return &Spec{
		Name: "queue",
		Proc: stochastic.NewTandemQueue(0.5, 2, 2),
		Obs:  stochastic.Queue2Len,
		Settings: []Setting{
			{Class: Medium, Horizon: 500, Beta: 28, TauPrior: 0.18, Levels: 2},
			{Class: Small, Horizon: 500, Beta: 37, TauPrior: 0.05, Levels: 3},
			{Class: Tiny, Horizon: 500, Beta: 58, TauPrior: 1.2e-3, Levels: 5},
			{Class: Rare, Horizon: 500, Beta: 64, TauPrior: 3.5e-4, Levels: 6},
		},
	}
}

// CPPSpec is the compound-Poisson risk workload with premium balancing the
// expected claims (driftless surplus), the regime in which the paper's
// thresholds are attainable.
func CPPSpec() *Spec {
	return &Spec{
		Name: "cpp",
		Proc: stochastic.NewCompoundPoisson(15, 6.0, 0.8, 5, 10),
		Obs:  stochastic.ScalarValue,
		Settings: []Setting{
			{Class: Medium, Horizon: 500, Beta: 225, TauPrior: 0.16, Levels: 2},
			{Class: Small, Horizon: 500, Beta: 300, TauPrior: 0.055, Levels: 3},
			{Class: Tiny, Horizon: 500, Beta: 450, TauPrior: 3.2e-3, Levels: 5},
			{Class: Rare, Horizon: 500, Beta: 550, TauPrior: 2.2e-4, Levels: 6},
		},
	}
}

// VolatileQueueSpec adds impulse jumps to the queue so sample paths skip
// levels — §6.2's Volatile Queue (see withQueueImpulses).
func VolatileQueueSpec() *Spec {
	return &Spec{
		Name: "volatile-queue",
		Proc: withQueueImpulses(stochastic.NewTandemQueue(0.5, 2, 2)),
		Obs:  stochastic.Queue2Len,
		Settings: []Setting{
			{Class: Tiny, Horizon: 500, Beta: 85, TauPrior: 2.1e-2, Levels: 6},
			{Class: Rare, Horizon: 500, Beta: 105, TauPrior: 3.5e-3, Levels: 7},
		},
	}
}

// VolatileCPPSpec adds impulse jumps to the surplus — §6.2's Volatile
// CPP (see withCPPImpulses).
func VolatileCPPSpec() *Spec {
	return &Spec{
		Name: "volatile-cpp",
		Proc: withCPPImpulses(stochastic.NewCompoundPoisson(15, 6.0, 0.8, 5, 10)),
		Obs:  stochastic.ScalarValue,
		Settings: []Setting{
			{Class: Tiny, Horizon: 500, Beta: 700, TauPrior: 9.5e-3, Levels: 4},
			{Class: Rare, Horizon: 500, Beta: 1000, TauPrior: 4.5e-4, Levels: 5},
		},
	}
}

// withQueueImpulses gives a tandem queue the Volatile Queue's impulse
// jumps: +15 customers with probability 0.015 per step once t > 0.8s.
// The impulse is large relative to the level gaps of the balanced plans
// above (15/beta > 0.14), which is what makes s-MLSS lose paths.
func withQueueImpulses(q *stochastic.TandemQueue) *stochastic.TandemQueue {
	q.ImpulseProb, q.ImpulseSize, q.ImpulseAfter = 0.015, 15, 400
	return q
}

// withCPPImpulses gives a surplus process the Volatile CPP's impulse
// jumps: +200 with probability 0.005 per step once t > 0.8s.
func withCPPImpulses(c *stochastic.CompoundPoisson) *stochastic.CompoundPoisson {
	c.ImpulseProb, c.ImpulseSize, c.ImpulseAfter = 0.005, 200, 400
	return c
}

var (
	stockOnce sync.Once
	stockSpec *Spec
)

// StockSpec is the LSTM-MDN stock workload of §6 model (3). The model is
// trained once per process, deterministically, on a synthetic 5-year
// price series (the stand-in for the paper's Google data; DESIGN.md §5).
// Training takes a few seconds; every caller shares the trained model.
func StockSpec() *Spec {
	stockOnce.Do(func() {
		gbm := &stochastic.GBM{S0: 1000, Mu: 0.0004, Sigma: 0.02}
		series := gbm.SeriesWithRegimes(1250, rng.New(20150101))
		model := neural.NewModel(neural.Config{
			Hidden: 16, Layers: 2, Mixtures: 3, SeqLen: 40,
		}, 7)
		if _, err := model.Train(series, 6); err != nil {
			panic("experiments: stock model training failed: " + err.Error())
		}
		proc := neural.NewStockProcess(model, 1000, 50)
		stockSpec = &Spec{
			Name: "rnn",
			Proc: proc,
			Obs:  neural.Price,
			Settings: []Setting{
				{Class: Small, Horizon: 200, Beta: 1550, TauPrior: 4.5e-2, Levels: 3},
				{Class: Tiny, Horizon: 200, Beta: 1900, TauPrior: 3e-3, Levels: 5},
			},
		}
	})
	return stockSpec
}

// planCache memoises balanced plans (they are deterministic but cost pilot
// simulations to construct).
var (
	planMu    sync.Mutex
	planCache = map[string]core.Plan{}
)

// BalancedPlanFor returns the MLSS-BAL plan for a spec's query class: a
// balanced-growth partition with the class's level count, reconstructed
// once per process via the staged pilot search (see internal/opt). This
// plays the role of the paper's manually tuned plans; its construction
// cost is *not* charged to MLSS-BAL runs, matching the paper's accounting.
func BalancedPlanFor(ctx context.Context, spec *Spec, class Class) (core.Plan, error) {
	key := spec.Name + "/" + string(class)
	planMu.Lock()
	if p, ok := planCache[key]; ok {
		planMu.Unlock()
		return p, nil
	}
	planMu.Unlock()

	st := spec.Setting(class)
	prob := &opt.Problem{
		Proc:  spec.Proc,
		Query: core.Query{Z: spec.Obs, Beta: st.Beta, Horizon: st.Horizon},
		Ratio: Ratio,
		Seed:  77,
	}
	plan, _, err := opt.BalancedPlan(ctx, prob, st.TauPrior, st.Levels, 400)
	if err != nil {
		return core.Plan{}, err
	}
	planMu.Lock()
	planCache[key] = plan
	planMu.Unlock()
	return plan, nil
}

// QualityStop returns the paper's stopping rule for a class, loosened by
// scale (scale 1 reproduces the paper: 1% relative CI at 95% confidence
// for Medium/Small, 10% relative error for Tiny/Rare; scale 3 gives 3%
// CI / 30% RE for cheap benchmark runs). cap is a hard step budget.
func QualityStop(class Class, scale float64, cap int64) mc.StopRule {
	if scale <= 0 {
		scale = 1
	}
	var quality mc.StopRule
	switch class {
	case Medium, Small:
		quality = mc.CITarget{Half: 0.01 * scale, Confidence: 0.95, Relative: true}
	default:
		quality = mc.RETarget{Target: 0.10 * scale}
	}
	return mc.Any{quality, mc.Budget{Steps: cap}}
}
