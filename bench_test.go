// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6). Each benchmark regenerates its artefact at a
// reduced quality scale so the whole suite finishes in minutes; the
// full-scale equivalents live behind cmd/experiments (see EXPERIMENTS.md
// for recorded paper-vs-measured numbers).
//
// Reported metrics: steps/op is the paper's cost measure (invocations of
// the step simulator); for comparison benchmarks, speedup is SRS cost
// divided by MLSS cost.
//
// Run a single artefact, e.g. Table 6:
//
//	go test -bench=BenchmarkTable6 -benchtime=1x
package durability_test

import (
	"context"
	"testing"

	"durability/internal/experiments"
)

// benchOpts returns the scaled-down run options used by every benchmark.
func benchOpts(seed uint64) experiments.RunOpts {
	return experiments.RunOpts{
		Scale:   6, // 6% relative CI on Medium/Small, 60% RE on Tiny/Rare
		Cap:     5_000_000,
		Seed:    seed,
		Workers: 8,
	}
}

var classes4 = []experiments.Class{
	experiments.Medium, experiments.Small, experiments.Tiny, experiments.Rare,
}

// BenchmarkTable3QueueAnswers regenerates Table 3: SRS vs MLSS answers on
// the queue model agree within noise (unbiasedness).
func BenchmarkTable3QueueAnswers(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AnswerTable(ctx, experiments.QueueSpec(), classes4, 3, benchOpts(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkTable4CPPAnswers regenerates Table 4 for the CPP model.
func BenchmarkTable4CPPAnswers(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.AnswerTable(ctx, experiments.CPPSpec(), classes4, 3, benchOpts(uint64(i)+2))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkTable5RNN regenerates Table 5: cost of Small and Tiny queries
// on the LSTM-MDN stock model, SRS vs MLSS.
func BenchmarkTable5RNN(b *testing.B) {
	ctx := context.Background()
	spec := experiments.StockSpec() // trains once per process
	cls := []experiments.Class{experiments.Small, experiments.Tiny}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.EfficiencyFigure(ctx, spec, cls, benchOpts(uint64(i)+3))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkTable6Volatile regenerates Table 6: under level skipping,
// s-MLSS is biased low while SRS and g-MLSS agree (fixed 50k budget).
func BenchmarkTable6Volatile(b *testing.B) {
	ctx := context.Background()
	specs := []*experiments.Spec{experiments.VolatileCPPSpec(), experiments.VolatileQueueSpec()}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.VolatileTable(ctx, specs, 50_000, 5, benchOpts(uint64(i)+4))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkTable7InDBMS regenerates Table 7: SRS vs MLSS with every
// simulator invocation dispatched through the embedded model database.
func BenchmarkTable7InDBMS(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.InDBMSTable(ctx, classes4, benchOpts(uint64(i)+5))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkFigure6QueueEfficiency regenerates Figure 6: steps and time to
// target quality on the queue model, per query class.
func BenchmarkFigure6QueueEfficiency(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.EfficiencyFigure(ctx, experiments.QueueSpec(), classes4, benchOpts(uint64(i)+6))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkFigure7CPPEfficiency regenerates Figure 7 for the CPP model.
func BenchmarkFigure7CPPEfficiency(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.EfficiencyFigure(ctx, experiments.CPPSpec(), classes4, benchOpts(uint64(i)+7))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

// BenchmarkFigure8Convergence regenerates Figure 8: the trajectory of the
// quality metric over cost for SRS vs MLSS (queue/Small and cpp/Tiny
// panels; the RNN panel runs under BenchmarkTable5RNN's model).
func BenchmarkFigure8Convergence(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		o := benchOpts(uint64(i) + 8)
		srs, mlss, err := experiments.ConvergenceFigure(ctx, experiments.QueueSpec(), experiments.Small, o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.ConvergenceReport(experiments.QueueSpec(), experiments.Small, srs, mlss))
		}
		srs, mlss, err = experiments.ConvergenceFigure(ctx, experiments.CPPSpec(), experiments.Tiny, o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.ConvergenceReport(experiments.CPPSpec(), experiments.Tiny, srs, mlss))
		}
	}
}

// BenchmarkFigure9GMLSSBreakdown regenerates Figure 9: g-MLSS total time
// split into simulation and §4.2's bootstrap evaluation, vs SRS, on the
// volatile models, with the served moment variance's cost beside it.
func BenchmarkFigure9GMLSSBreakdown(b *testing.B) {
	ctx := context.Background()
	specs := []*experiments.Spec{experiments.VolatileCPPSpec(), experiments.VolatileQueueSpec()}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.BreakdownFigure(ctx, specs, benchOpts(uint64(i)+9))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", rep)
		}
	}
}

var ratioSweep = []int{1, 2, 3, 4, 5, 6, 7}

// BenchmarkFigure10SplitRatioSmall regenerates Figure 10: the ratio
// sweep's U-shape on Small queries (optimum near r=3, r=1 equals SRS).
func BenchmarkFigure10SplitRatioSmall(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, spec := range []*experiments.Spec{experiments.QueueSpec(), experiments.CPPSpec()} {
			rep, err := experiments.RatioSweep(ctx, spec, experiments.Small, ratioSweep, 4, benchOpts(uint64(i)+10))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("\n%s", rep)
			}
		}
	}
}

// BenchmarkFigure11SplitRatioTiny regenerates Figure 11: the ratio sweep
// on Tiny queries, whose optimum shifts to slightly larger ratios.
func BenchmarkFigure11SplitRatioTiny(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, spec := range []*experiments.Spec{experiments.QueueSpec(), experiments.CPPSpec()} {
			rep, err := experiments.RatioSweep(ctx, spec, experiments.Tiny, ratioSweep, 4, benchOpts(uint64(i)+11))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("\n%s", rep)
			}
		}
	}
}

// BenchmarkFigure12NumLevels regenerates Figure 12: the level-count sweep
// (Small prefers few levels; Tiny prefers more).
func BenchmarkFigure12NumLevels(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, spec := range []*experiments.Spec{experiments.QueueSpec(), experiments.CPPSpec()} {
			for _, cfg := range []struct {
				class  experiments.Class
				levels []int
			}{
				{experiments.Small, []int{2, 3, 4, 5}},
				{experiments.Tiny, []int{2, 3, 4, 5, 6, 7, 8}},
			} {
				rep, err := experiments.LevelSweep(ctx, spec, cfg.class, cfg.levels, benchOpts(uint64(i)+12))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", rep)
				}
			}
		}
	}
}

// BenchmarkFigure13GreedySMLSS regenerates Figure 13: SRS vs pre-tuned
// balanced MLSS vs greedy-searched MLSS (search overhead itemised), with
// s-MLSS on the queue and CPP models.
func BenchmarkFigure13GreedySMLSS(b *testing.B) {
	ctx := context.Background()
	cls := []experiments.Class{experiments.Small, experiments.Tiny, experiments.Rare}
	for i := 0; i < b.N; i++ {
		for _, spec := range []*experiments.Spec{experiments.QueueSpec(), experiments.CPPSpec()} {
			rep, err := experiments.GreedyFigure(ctx, spec, cls, false, benchOpts(uint64(i)+13))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("\n%s", rep)
			}
		}
	}
}

// BenchmarkFigure14GreedyGMLSS regenerates Figure 14: greedy level
// partitions with g-MLSS (bootstrap variance) on the volatile models.
func BenchmarkFigure14GreedyGMLSS(b *testing.B) {
	ctx := context.Background()
	cls := []experiments.Class{experiments.Tiny, experiments.Rare}
	for i := 0; i < b.N; i++ {
		for _, spec := range []*experiments.Spec{experiments.VolatileQueueSpec(), experiments.VolatileCPPSpec()} {
			rep, err := experiments.GreedyFigure(ctx, spec, cls, true, benchOpts(uint64(i)+14))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("\n%s", rep)
			}
		}
	}
}
