// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6). Each experiment prints an aligned text table;
// with -md the same tables are appended to a markdown file.
//
//	experiments -list
//	experiments -run table3 -scale 2 -workers 8
//	experiments -run all -scale 4 -workers 16 -md results.md
//
// scale loosens the paper's quality targets (1 = paper fidelity: 1%
// relative CI on Medium/Small, 10% RE on Tiny/Rare). Larger scales run
// dramatically faster; the *shape* of every comparison is preserved.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"durability/internal/experiments"
)

// experiment is one regenerable table or figure.
type experiment struct {
	id   string
	desc string
	run  func(ctx context.Context, o experiments.RunOpts, runs int) ([]experiments.Report, error)
}

func catalog() []experiment {
	return []experiment{
		{"table3", "Queue model: SRS vs MLSS answers (unbiasedness)", runTable3},
		{"table4", "CPP model: SRS vs MLSS answers (unbiasedness)", runTable4},
		{"table5", "RNN model: answers and cost", runTable5},
		{"table6", "Volatile models: s-MLSS bias vs g-MLSS (fixed budget)", runTable6},
		{"table7", "In-DBMS execution (simdb stored procedures)", runTable7},
		{"fig6", "Queue model: steps and time, SRS vs MLSS", runFig6},
		{"fig7", "CPP model: steps and time, SRS vs MLSS", runFig7},
		{"fig8", "Convergence of quality over cost (3 panels)", runFig8},
		{"fig9", "g-MLSS time breakdown on volatile models", runFig9},
		{"fig10", "Splitting-ratio sweep, Small queries", runFig10},
		{"fig11", "Splitting-ratio sweep, Tiny queries", runFig11},
		{"fig12", "Level-count sweep, Small and Tiny queries", runFig12},
		{"fig13", "Greedy level partitions with s-MLSS", runFig13},
		{"fig14", "Greedy level partitions with g-MLSS (volatile)", runFig14},
	}
}

// four is the standard set of query classes from Table 2.
var four = []experiments.Class{experiments.Medium, experiments.Small, experiments.Tiny, experiments.Rare}

func main() {
	var (
		runID   = flag.String("run", "", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		scale   = flag.Float64("scale", 2, "quality-target scale (1 = paper fidelity)")
		runs    = flag.Int("runs", 10, "repetitions for mean±std tables (paper uses 100)")
		workers = flag.Int("workers", 8, "ceiling on the kernels one sampling round steps at once (only idle CPUs join)")
		seed    = flag.Uint64("seed", 1, "base random seed")
		cap     = flag.Int64("cap", 500_000_000, "hard per-run step budget")
		mdPath  = flag.String("md", "", "append markdown output to this file")
	)
	flag.Parse()

	cat := catalog()
	if *list || *runID == "" {
		fmt.Println("available experiments:")
		for _, e := range cat {
			fmt.Printf("  %-8s %s\n", e.id, e.desc)
		}
		fmt.Println("  all      run everything")
		return
	}

	o := experiments.RunOpts{Scale: *scale, Cap: *cap, Seed: *seed, Workers: *workers}
	ids := map[string]experiment{}
	for _, e := range cat {
		ids[e.id] = e
	}
	var selected []experiment
	if *runID == "all" {
		selected = cat
	} else {
		for _, id := range strings.Split(*runID, ",") {
			e, ok := ids[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown id %q\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}
	sort.SliceStable(selected, func(i, j int) bool { return selected[i].id < selected[j].id })

	var md strings.Builder
	ctx := context.Background()
	for _, e := range selected {
		fmt.Printf("== %s: %s ==\n", e.id, e.desc)
		reports, err := e.run(ctx, o, *runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		for _, r := range reports {
			fmt.Println(r.String())
			md.WriteString(r.Markdown())
		}
	}
	if *mdPath != "" {
		f, err := os.OpenFile(*mdPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if _, err := f.WriteString(md.String()); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("markdown appended to %s\n", *mdPath)
	}
}

func one(r experiments.Report, err error) ([]experiments.Report, error) {
	return []experiments.Report{r}, err
}

func runTable3(ctx context.Context, o experiments.RunOpts, runs int) ([]experiments.Report, error) {
	return one(experiments.AnswerTable(ctx, experiments.QueueSpec(), four, runs, o))
}

func runTable4(ctx context.Context, o experiments.RunOpts, runs int) ([]experiments.Report, error) {
	return one(experiments.AnswerTable(ctx, experiments.CPPSpec(), four, runs, o))
}

func runTable5(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	spec := experiments.StockSpec()
	classes := []experiments.Class{experiments.Small, experiments.Tiny}
	rep, err := experiments.EfficiencyFigure(ctx, spec, classes, o)
	if err != nil {
		return nil, err
	}
	ans, err := experiments.AnswerTable(ctx, spec, classes, 1, o)
	if err != nil {
		return nil, err
	}
	return []experiments.Report{ans, rep}, nil
}

func runTable6(ctx context.Context, o experiments.RunOpts, runs int) ([]experiments.Report, error) {
	specs := []*experiments.Spec{experiments.VolatileCPPSpec(), experiments.VolatileQueueSpec()}
	return one(experiments.VolatileTable(ctx, specs, 50_000, runs, o))
}

func runTable7(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	return one(experiments.InDBMSTable(ctx, four, o))
}

func runFig6(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	return one(experiments.EfficiencyFigure(ctx, experiments.QueueSpec(), four, o))
}

func runFig7(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	return one(experiments.EfficiencyFigure(ctx, experiments.CPPSpec(), four, o))
}

func runFig8(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	var out []experiments.Report
	panels := []struct {
		spec  *experiments.Spec
		class experiments.Class
	}{
		{experiments.QueueSpec(), experiments.Small},
		{experiments.CPPSpec(), experiments.Tiny},
		{experiments.StockSpec(), experiments.Tiny},
	}
	for _, p := range panels {
		srs, mlss, err := experiments.ConvergenceFigure(ctx, p.spec, p.class, o)
		if err != nil {
			return nil, err
		}
		out = append(out, experiments.ConvergenceReport(p.spec, p.class, srs, mlss))
	}
	return out, nil
}

func runFig9(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	specs := []*experiments.Spec{experiments.VolatileCPPSpec(), experiments.VolatileQueueSpec()}
	return one(experiments.BreakdownFigure(ctx, specs, o))
}

var ratios = []int{1, 2, 3, 4, 5, 6, 7}

func runFig10(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	var out []experiments.Report
	for _, spec := range []*experiments.Spec{experiments.QueueSpec(), experiments.CPPSpec()} {
		rep, err := experiments.RatioSweep(ctx, spec, experiments.Small, ratios, 4, o)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

func runFig11(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	var out []experiments.Report
	for _, spec := range []*experiments.Spec{experiments.QueueSpec(), experiments.CPPSpec()} {
		rep, err := experiments.RatioSweep(ctx, spec, experiments.Tiny, ratios, 4, o)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

func runFig12(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	var out []experiments.Report
	for _, spec := range []*experiments.Spec{experiments.QueueSpec(), experiments.CPPSpec()} {
		for _, cfg := range []struct {
			class  experiments.Class
			levels []int
		}{
			{experiments.Small, []int{2, 3, 4, 5}},
			{experiments.Tiny, []int{2, 3, 4, 5, 6, 7, 8}},
		} {
			rep, err := experiments.LevelSweep(ctx, spec, cfg.class, cfg.levels, o)
			if err != nil {
				return nil, err
			}
			out = append(out, rep)
		}
	}
	return out, nil
}

func runFig13(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	var out []experiments.Report
	cases := []struct {
		spec    *experiments.Spec
		classes []experiments.Class
	}{
		{experiments.QueueSpec(), four},
		{experiments.CPPSpec(), four},
		{experiments.StockSpec(), []experiments.Class{experiments.Small, experiments.Tiny}},
	}
	for _, c := range cases {
		rep, err := experiments.GreedyFigure(ctx, c.spec, c.classes, false, o)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

func runFig14(ctx context.Context, o experiments.RunOpts, _ int) ([]experiments.Report, error) {
	var out []experiments.Report
	tinyRare := []experiments.Class{experiments.Tiny, experiments.Rare}
	for _, spec := range []*experiments.Spec{experiments.VolatileQueueSpec(), experiments.VolatileCPPSpec()} {
		rep, err := experiments.GreedyFigure(ctx, spec, tinyRare, true, o)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}
