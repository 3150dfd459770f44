package core

import (
	"context"

	"durability/internal/rng"
	"durability/internal/stochastic"
)

// The reference recursion: the depth-first transcription of §3 (s-MLSS)
// and §4 (g-MLSS) that the lane kernel reproduces draw for draw. Nothing
// runs it in production; the differential suite (kernel_test.go) plugs
// referenceGMLSS / referenceSMLSS into the samplers' own estimator loops
// in place of the kernel and compares every result with ==.

// referenceGMLSS is the gmlssSimFunc that simulates each root by the
// recursion, one model Step at a time.
func referenceGMLSS(g *GMLSS, workers int, proto stochastic.State, initLevel int) rangeFunc[gmlssRoot] {
	return func(ctx context.Context, lo, hi int64) ([]gmlssRoot, error) {
		return forEachRoot(ctx, workers, lo, hi, func(idx int64) gmlssRoot {
			r := gmlssRoot{counters: NewCounters(g.Plan.M())}
			src := rng.NewStream(g.Seed, uint64(idx))
			gmlssSegment(g, proto.Clone(), 0, initLevel, src, &r)
			return r
		})
	}
}

// referenceSMLSS is referenceGMLSS's s-MLSS counterpart.
func referenceSMLSS(s *SMLSS, workers int, proto stochastic.State, initLevel int) rangeFunc[smlssRoot] {
	return func(ctx context.Context, lo, hi int64) ([]smlssRoot, error) {
		return forEachRoot(ctx, workers, lo, hi, func(idx int64) smlssRoot {
			r := smlssRoot{entries: make([]int64, s.Plan.M()+1)}
			src := rng.NewStream(s.Seed, uint64(idx))
			smlssSegment(s, proto.Clone(), 0, initLevel+1, src, &r)
			return r
		})
	}
}

// gmlssSegment simulates one path that last landed in level curr at time
// t0 and reports whether it crossed boundary beta_{curr+1} before the
// horizon. On the first crossing it books skipped levels, and either
// records a target hit (the crossing reached f >= 1) or lands in level j,
// splits into ratioAt(j) offspring and records mu = (offspring crossing
// beta_{j+1})/ratio.
func gmlssSegment(g *GMLSS, st stochastic.State, t0, curr int, src *rng.Source, out *gmlssRoot) bool {
	m := g.Plan.M()
	nextB := g.Plan.Boundary(curr + 1)
	for t := t0 + 1; t <= g.Query.Horizon; t++ {
		g.Proc.Step(st, t, src)
		out.steps++
		f := g.Query.Value(st, t)
		if f < nextB {
			continue
		}
		j := g.Plan.LevelOf(f)
		for i := curr + 1; i < j; i++ {
			out.counters.Skip[i]++
		}
		if j == m {
			out.counters.Hits++
			return true
		}
		out.counters.Land[j]++
		ratio := g.ratioAt(j)
		crossed := 0
		for c := 0; c < ratio; c++ {
			if gmlssSegment(g, st.Clone(), t, j, src, out) {
				crossed++
			}
		}
		frac := float64(crossed) / float64(ratio)
		out.counters.Mu[j] += frac
		return true
	}
	return false
}

// smlssSegment simulates one path from time t0, watching level L_watch:
// the first landing inside [beta_watch, beta_{watch+1}) triggers a split.
// When watch == m the watched "interval" is the target [1,1].
func smlssSegment(s *SMLSS, st stochastic.State, t0, watch int, src *rng.Source, out *smlssRoot) {
	m := s.Plan.M()
	var lo, hi float64
	if watch <= m {
		lo = s.Plan.Boundary(watch)
	}
	if watch < m {
		hi = s.Plan.Boundary(watch + 1)
	}
	for t := t0 + 1; t <= s.Query.Horizon; t++ {
		s.Proc.Step(st, t, src)
		out.steps++
		f := s.Query.Value(st, t)
		if watch == m {
			if f >= 1 {
				out.hits++
				out.entries[m]++
				return
			}
			continue
		}
		if f >= lo && f < hi {
			out.entries[watch]++
			for c := 0; c < s.Ratio; c++ {
				smlssSegment(s, st.Clone(), t, watch+1, src, out)
			}
			return
		}
	}
}

// forEachRoot runs roots [lo, hi) one at a time on runLaneChunks' worker
// layout, so it shares the kernel's cancellation contract: the result is
// the longest contiguous prefix of completed roots.
func forEachRoot[T any](ctx context.Context, workers int, lo, hi int64, run func(idx int64) T) ([]T, error) {
	out := make([]T, hi-lo)
	prefix, err := runLaneChunks(ctx, workers, hi-lo, func(_ int, wlo, whi int64) int64 {
		for i := wlo; i < whi; i++ {
			if ctx.Err() != nil {
				return i - wlo
			}
			out[i] = run(lo + i)
		}
		return whi - wlo
	})
	return out[:prefix], err
}
