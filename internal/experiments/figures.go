package experiments

import (
	"context"
	"fmt"
	"time"

	"durability/internal/core"
	"durability/internal/mc"
	"durability/internal/opt"
	"durability/internal/rng"
	"durability/internal/simdb"
	"durability/internal/stats"
	"durability/internal/telemetry"
)

// AnswerTable regenerates Tables 3 and 4 (and the answer columns of
// Table 5): SRS and MLSS answers, averaged over runs independent
// executions with empirical standard deviations, per query class. MLSS
// uses the class's balanced plan with the default ratio — the paper's
// default configuration.
func AnswerTable(ctx context.Context, spec *Spec, classes []Class, runs int, o RunOpts) (Report, error) {
	rep := Report{
		Title:  fmt.Sprintf("Answer comparison on %s model (%d runs, scale %.2g)", spec.Name, runs, o.Scale),
		Header: []string{"Query", "SRS", "MLSS", "SRS steps", "MLSS steps"},
	}
	for _, class := range classes {
		plan, err := BalancedPlanFor(ctx, spec, class)
		if err != nil {
			return rep, err
		}
		var srsAcc, mlssAcc, srsSteps, mlssSteps stats.Accumulator
		for i := 0; i < runs; i++ {
			ro := o
			ro.Seed = o.Seed + uint64(1000*i) + 1
			sres, err := RunSRS(ctx, spec, class, ro)
			if err != nil {
				return rep, err
			}
			mres, err := RunSMLSS(ctx, spec, class, plan, Ratio, ro)
			if err != nil {
				return rep, err
			}
			srsAcc.Add(sres.P)
			mlssAcc.Add(mres.P)
			srsSteps.Add(float64(sres.Steps))
			mlssSteps.Add(float64(mres.Steps))
		}
		rep.AddRow(string(class),
			pctPair(srsAcc.Mean(), srsAcc.StdDev()),
			pctPair(mlssAcc.Mean(), mlssAcc.StdDev()),
			fmt.Sprintf("%.3g", srsSteps.Mean()),
			fmt.Sprintf("%.3g", mlssSteps.Mean()))
	}
	return rep, nil
}

// EfficiencyFigure regenerates Figures 6 and 7 (and the cost columns of
// Table 5): total simulation steps and wall-clock time for SRS vs MLSS to
// reach the class's quality target.
func EfficiencyFigure(ctx context.Context, spec *Spec, classes []Class, o RunOpts) (Report, error) {
	rep := Report{
		Title:  fmt.Sprintf("Query efficiency on %s model (scale %.2g)", spec.Name, o.Scale),
		Header: []string{"Query", "SRS steps", "MLSS steps", "speedup", "SRS time", "MLSS time"},
	}
	for _, class := range classes {
		plan, err := BalancedPlanFor(ctx, spec, class)
		if err != nil {
			return rep, err
		}
		sres, err := RunSRS(ctx, spec, class, o)
		if err != nil {
			return rep, err
		}
		mres, err := RunSMLSS(ctx, spec, class, plan, Ratio, o)
		if err != nil {
			return rep, err
		}
		rep.AddRow(string(class),
			fmt.Sprintf("%d", sres.Steps),
			fmt.Sprintf("%d", mres.Steps),
			fmt.Sprintf("%.2fx", float64(sres.Steps)/float64(mres.Steps)),
			sres.Elapsed.Round(time.Millisecond).String(),
			mres.Elapsed.Round(time.Millisecond).String())
	}
	return rep, nil
}

// ConvergencePoint is one sample of estimate quality over cost.
type ConvergencePoint struct {
	Steps    int64
	Estimate float64
	Metric   float64 // CI half-width (relative) or relative error
}

// ConvergenceFigure regenerates one panel of Figure 8: the trajectory of
// the quality metric over simulation cost for SRS and MLSS on one query.
// The metric is the relative CI half-width for Medium/Small classes and
// the relative error for Tiny/Rare, matching the paper's panels.
func ConvergenceFigure(ctx context.Context, spec *Spec, class Class, o RunOpts) (srs, mlss []ConvergencePoint, err error) {
	plan, err := BalancedPlanFor(ctx, spec, class)
	if err != nil {
		return nil, nil, err
	}
	metric := func(r mc.Result) float64 {
		switch class {
		case Medium, Small:
			if r.P <= 0 {
				return 1
			}
			return stats.ZCritical(0.95) * r.StdErr() / r.P
		default:
			return r.RelErr()
		}
	}
	collect := func(dst *[]ConvergencePoint) func(mc.Result) {
		return func(r mc.Result) {
			*dst = append(*dst, ConvergencePoint{Steps: r.Steps, Estimate: r.P, Metric: metric(r)})
		}
	}
	ro := o
	ro.Trace = collect(&srs)
	if _, err := RunSRS(ctx, spec, class, ro); err != nil {
		return nil, nil, err
	}
	ro.Trace = collect(&mlss)
	if _, err := RunSMLSS(ctx, spec, class, plan, Ratio, ro); err != nil {
		return nil, nil, err
	}
	return srs, mlss, nil
}

// ConvergenceReport renders the Figure 8 panel as a table of checkpoints.
func ConvergenceReport(spec *Spec, class Class, srs, mlss []ConvergencePoint) Report {
	rep := Report{
		Title:  fmt.Sprintf("Convergence on %s/%s (quality metric over steps)", spec.Name, class),
		Header: []string{"series", "steps", "estimate", "metric"},
	}
	sample := func(name string, pts []ConvergencePoint) {
		if len(pts) == 0 {
			return
		}
		stride := len(pts)/8 + 1
		for i := 0; i < len(pts); i += stride {
			p := pts[i]
			rep.AddRow(name, fmt.Sprintf("%d", p.Steps), pct(p.Estimate), fmt.Sprintf("%.3g", p.Metric))
		}
		last := pts[len(pts)-1]
		rep.AddRow(name, fmt.Sprintf("%d", last.Steps), pct(last.Estimate), fmt.Sprintf("%.3g", last.Metric))
	}
	sample("srs", srs)
	sample("mlss", mlss)
	return rep
}

// VolatileTable regenerates Table 6: on level-skipping processes under a
// fixed per-run budget, SRS and g-MLSS agree while s-MLSS is biased low.
func VolatileTable(ctx context.Context, specs []*Spec, budget int64, runs int, o RunOpts) (Report, error) {
	rep := Report{
		Title:  fmt.Sprintf("Level-skipping estimates, fixed budget %d steps, %d runs", budget, runs),
		Header: []string{"Model/Query", "SRS", "s-MLSS (biased)", "g-MLSS"},
	}
	for _, spec := range specs {
		for _, st := range spec.Settings {
			plan, err := BalancedPlanFor(ctx, spec, st.Class)
			if err != nil {
				return rep, err
			}
			var srsAcc, sAcc, gAcc stats.Accumulator
			for i := 0; i < runs; i++ {
				ro := o
				ro.Seed = o.Seed + uint64(1000*i) + 13
				sres, err := RunSRSBudget(ctx, spec, st.Class, budget, ro)
				if err != nil {
					return rep, err
				}
				smres, err := RunSMLSSBudget(ctx, spec, st.Class, plan, Ratio, budget, ro)
				if err != nil {
					return rep, err
				}
				gres, err := RunGMLSSBudget(ctx, spec, st.Class, plan, Ratio, budget, ro)
				if err != nil {
					return rep, err
				}
				srsAcc.Add(sres.P)
				sAcc.Add(smres.P)
				gAcc.Add(gres.P)
			}
			rep.AddRow(fmt.Sprintf("%s/%s", spec.Name, st.Class),
				pctPair(srsAcc.Mean(), srsAcc.StdDev()),
				pctPair(sAcc.Mean(), sAcc.StdDev()),
				pctPair(gAcc.Mean(), gAcc.StdDev()))
		}
	}
	rep.AddNote("s-MLSS loses paths that jump over its watched level, biasing it low; g-MLSS books them via n_skip (§4).")
	return rep, nil
}

// BreakdownFigure regenerates Figure 9: total g-MLSS query time split into
// simulation and bootstrap-evaluation time, against the SRS baseline.
//
// The served estimator reports the delta-method variance of per-root
// moments (core.Moments), not §4.2's bootstrap, so the paper's bootstrap
// cost is measured beside the run: its 200-replicate bootstrap
// (core.BootstrapVarianceFromGroups) over the run's per-root units on the
// paper's conservative schedule. "g-MLSS total" is simulation plus that
// bootstrap, the paper's quantity; the moments column is what the served
// answer spent on its variance.
func BreakdownFigure(ctx context.Context, specs []*Spec, o RunOpts) (Report, error) {
	rep := Report{
		Title:  "g-MLSS time breakdown on volatile models",
		Header: []string{"Model/Query", "SRS time", "g-MLSS total", "simulate", "bootstrap", "moments", "steps SRS", "steps g-MLSS"},
	}
	ms := func(d time.Duration) string { return d.Round(time.Millisecond).String() }
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	for _, spec := range specs {
		for _, st := range spec.Settings {
			plan, err := BalancedPlanFor(ctx, spec, st.Class)
			if err != nil {
				return rep, err
			}
			sres, err := RunSRS(ctx, spec, st.Class, o)
			if err != nil {
				return rep, err
			}
			g := gmlssFor(spec, st.Class, plan, Ratio, o)
			gres, err := g.Run(ctx)
			if err != nil {
				return rep, err
			}
			boot, err := bootstrapCost(ctx, g, gres.Paths)
			if err != nil {
				return rep, err
			}
			simulate := gres.Elapsed - gres.VarTime
			rep.AddRow(fmt.Sprintf("%s/%s", spec.Name, st.Class),
				ms(sres.Elapsed), ms(simulate+boot), ms(simulate), us(boot), us(gres.VarTime),
				fmt.Sprintf("%d", sres.Steps),
				fmt.Sprintf("%d", gres.Steps))
		}
	}
	return rep, nil
}

// bootstrapCost times §4.2's bootstrap over the first paths roots of g's
// run, replayed in the estimator loop's 128-root rounds: a 200-replicate
// evaluation over every per-root unit so far whenever total steps have
// grown 1.3x since the last one, and once more at the end — the paper's
// conservative schedule. Only the evaluations are timed.
func bootstrapCost(ctx context.Context, g *core.GMLSS, paths int64) (time.Duration, error) {
	const round, reps, grow = 128, 200, 1.3
	m := g.Plan.M()
	initLevel := g.Plan.LevelOf(g.Query.Value(g.Proc.Initial(), 0))
	src := rng.NewStream(g.Seed, 1<<63)
	var units []core.Counters
	var steps, nextAt int64
	var spent time.Duration
	for lo := int64(0); lo < paths; lo += round {
		hi := min(lo+round, paths)
		shard, err := g.RunRootsBy(ctx, lo, hi, 1)
		if err != nil {
			return spent, err
		}
		units = append(units, shard.Groups...)
		steps += shard.Steps
		if steps >= nextAt || hi == paths {
			began := telemetry.Now()
			core.BootstrapVarianceFromGroups(units, 1, m, initLevel, reps, src)
			spent += telemetry.Since(began)
			nextAt = int64(float64(steps) * grow)
		}
	}
	return spent, nil
}

// RatioSweep regenerates Figures 10 and 11: total steps to the quality
// target as the splitting ratio varies, on a fixed balanced plan. Ratio 1
// is the SRS-equivalent baseline.
func RatioSweep(ctx context.Context, spec *Spec, class Class, ratios []int, levels int, o RunOpts) (Report, error) {
	rep := Report{
		Title:  fmt.Sprintf("Splitting-ratio sweep on %s/%s (%d levels)", spec.Name, class, levels),
		Header: []string{"ratio", "steps", "estimate"},
	}
	st := spec.Setting(class)
	prob := &opt.Problem{
		Proc:  spec.Proc,
		Query: coreQuery(spec, st),
		Ratio: Ratio,
		Seed:  78,
	}
	plan, _, err := opt.BalancedPlan(ctx, prob, st.TauPrior, levels, 400)
	if err != nil {
		return rep, err
	}
	for _, r := range ratios {
		res, err := RunSMLSS(ctx, spec, class, plan, r, o)
		if err != nil {
			return rep, err
		}
		rep.AddRow(fmt.Sprintf("%d", r), fmt.Sprintf("%d", res.Steps), pct(res.P))
	}
	rep.AddNote("plan boundaries: %v", plan.Boundaries)
	return rep, nil
}

// LevelSweep regenerates Figure 12: total steps to the quality target as
// the number of levels varies, at the default ratio, using balanced plans.
func LevelSweep(ctx context.Context, spec *Spec, class Class, levelCounts []int, o RunOpts) (Report, error) {
	rep := Report{
		Title:  fmt.Sprintf("Level-count sweep on %s/%s (ratio %d)", spec.Name, class, Ratio),
		Header: []string{"levels", "boundaries", "steps", "estimate"},
	}
	st := spec.Setting(class)
	for _, m := range levelCounts {
		prob := &opt.Problem{
			Proc:  spec.Proc,
			Query: coreQuery(spec, st),
			Ratio: Ratio,
			Seed:  79,
		}
		plan, _, err := opt.BalancedPlan(ctx, prob, st.TauPrior, m, 400)
		if err != nil {
			return rep, err
		}
		res, err := RunSMLSS(ctx, spec, class, plan, Ratio, o)
		if err != nil {
			return rep, err
		}
		rep.AddRow(fmt.Sprintf("%d", m), fmt.Sprintf("%d", len(plan.Boundaries)),
			fmt.Sprintf("%d", res.Steps), pct(res.P))
	}
	return rep, nil
}

// GreedyFigure regenerates Figure 13 (s-MLSS variant) or Figure 14
// (g-MLSS on volatile models): SRS vs pre-tuned balanced MLSS (search cost
// not charged) vs greedy-tuned MLSS (search cost charged separately).
func GreedyFigure(ctx context.Context, spec *Spec, classes []Class, general bool, o RunOpts) (Report, error) {
	kind := "s-MLSS"
	if general {
		kind = "g-MLSS"
	}
	rep := Report{
		Title:  fmt.Sprintf("Greedy level partitions with %s on %s model", kind, spec.Name),
		Header: []string{"Query", "SRS steps", "BAL steps", "Greedy steps", "search overhead", "greedy/SRS"},
	}
	for _, class := range classes {
		st := spec.Setting(class)
		sres, err := RunSRS(ctx, spec, class, o)
		if err != nil {
			return rep, err
		}
		balPlan, err := BalancedPlanFor(ctx, spec, class)
		if err != nil {
			return rep, err
		}
		run := func(plan core.Plan, ro RunOpts) (mc.Result, error) {
			if general {
				return RunGMLSS(ctx, spec, class, plan, Ratio, ro)
			}
			return RunSMLSS(ctx, spec, class, plan, Ratio, ro)
		}
		bres, err := run(balPlan, o)
		if err != nil {
			return rep, err
		}
		prob := &opt.Problem{
			Proc:    spec.Proc,
			Query:   coreQuery(spec, st),
			Ratio:   Ratio,
			Seed:    o.Seed + 55,
			Workers: o.Workers,
		}
		greedy, err := opt.Greedy(ctx, prob, opt.GreedyOptions{})
		if err != nil {
			return rep, err
		}
		gres, err := run(greedy.Plan, o)
		if err != nil {
			return rep, err
		}
		totalGreedy := gres.Steps + greedy.SearchSteps
		rep.AddRow(string(class),
			fmt.Sprintf("%d", sres.Steps),
			fmt.Sprintf("%d", bres.Steps),
			fmt.Sprintf("%d", totalGreedy),
			fmt.Sprintf("%d (%.0f%%)", greedy.SearchSteps, 100*float64(greedy.SearchSteps)/float64(totalGreedy)),
			fmt.Sprintf("%.2f", float64(totalGreedy)/float64(sres.Steps)))
	}
	rep.AddNote("BAL plans are pre-tuned balanced-growth partitions; their construction cost is not charged (paper §6.3).")
	return rep, nil
}

// InDBMSTable regenerates Table 7: SRS vs MLSS running entirely through
// the embedded model database's stored-procedure dispatch.
func InDBMSTable(ctx context.Context, classes []Class, o RunOpts) (Report, error) {
	rep := Report{
		Title:  "Query times inside the embedded model DB (simdb)",
		Header: []string{"Model", "Query", "SRS time", "MLSS time", "SRS steps", "MLSS steps"},
	}
	db := simdb.New()
	if err := StoreSpecModels(db); err != nil {
		return rep, err
	}
	for _, pair := range []struct {
		model string
		spec  *Spec
	}{{"queue", QueueSpec()}, {"cpp", CPPSpec()}} {
		for _, class := range classes {
			plan, err := BalancedPlanFor(ctx, pair.spec, class)
			if err != nil {
				return rep, err
			}
			sres, err := RunInDB(ctx, db, pair.model, pair.spec, class, simdb.MethodSRS, core.Plan{}, o)
			if err != nil {
				return rep, err
			}
			mres, err := RunInDB(ctx, db, pair.model, pair.spec, class, simdb.MethodSMLSS, plan, o)
			if err != nil {
				return rep, err
			}
			rep.AddRow(pair.model, string(class),
				sres.Elapsed.Round(time.Millisecond).String(),
				mres.Elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%d", sres.Steps),
				fmt.Sprintf("%d", mres.Steps))
		}
	}
	return rep, nil
}
