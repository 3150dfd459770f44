package core

import (
	"context"

	"durability/internal/stochastic"
)

// The sim types own everything the drivers (Run, RunRootsBy, run,
// LevelEntryCounts) reuse across batches of one run: the initial-state
// prototype built by a single Proc.Initial() call and loaded into a lane
// per root (expensive initializers — neural warmup replay — run once per
// run, not once per root), the counter arenas recycled batch to batch,
// and one lane kernel per chunk slot of a round (runLaneChunks), built
// the first time a round is that wide. Every model runs through the kernel:
// stochastic.AsBulk supplies the model's native bulk form, or the Lanes
// adapter for a black-box model.
//
// The drivers receive the simulation as a function that builds a run's
// rangeFunc (kernelGMLSS / kernelSMLSS), so the differential tests can
// run the reference recursion (reference_test.go) under the very same
// estimator loops.

// rangeFunc simulates root paths [lo, hi), one result per index. On
// cancellation it returns the longest contiguous prefix of completed
// roots with the context's error. Results may alias per-run arenas:
// callers fold them before the next call, which every driver does.
type rangeFunc[T any] func(ctx context.Context, lo, hi int64) ([]T, error)

// gmlssSimFunc builds the root-range simulation of one GMLSS run.
type gmlssSimFunc func(g *GMLSS, ceiling int, proto stochastic.State, initLevel int) rangeFunc[gmlssRoot]

// smlssSimFunc builds the root-range simulation of one SMLSS run.
type smlssSimFunc func(s *SMLSS, ceiling int, proto stochastic.State, initLevel int) rangeFunc[smlssRoot]

// gmlssSim is the per-run simulation engine for GMLSS.
type gmlssSim struct {
	g         *GMLSS
	proto     stochastic.State
	initLevel int
	bulk      stochastic.BulkProcess
	arena     counterArena
	kernels   []*gmlssKernel // one per chunk slot a round may use, built lazily
}

// kernelGMLSS is the production gmlssSimFunc: the lane kernel.
func kernelGMLSS(g *GMLSS, ceiling int, proto stochastic.State, initLevel int) rangeFunc[gmlssRoot] {
	sim := &gmlssSim{
		g: g, proto: proto, initLevel: initLevel,
		bulk:    stochastic.AsBulk(g.Proc),
		kernels: make([]*gmlssKernel, ceiling),
	}
	sim.arena.m = g.Plan.M()
	return sim.runRange
}

func (sim *gmlssSim) runRange(ctx context.Context, lo, hi int64) ([]gmlssRoot, error) {
	n := hi - lo
	counters := sim.arena.carve(int(n))
	out := make([]gmlssRoot, n)
	for i := range out {
		out[i].counters = counters[i]
	}
	prefix, err := runLaneChunks(ctx, len(sim.kernels), n, func(w int, wlo, whi int64) int64 {
		k := sim.kernels[w]
		if k == nil {
			k = newGMLSSKernel(sim.g, sim.bulk, sim.proto, sim.initLevel)
			sim.kernels[w] = k
		}
		return k.runChunk(ctx, lo+wlo, out[wlo:whi])
	})
	if err != nil {
		return out[:prefix], err
	}
	return out, nil
}

// smlssSim is the per-run simulation engine for SMLSS.
type smlssSim struct {
	s         *SMLSS
	proto     stochastic.State
	initLevel int
	bulk      stochastic.BulkProcess
	arena     entryArena
	kernels   []*smlssKernel
}

// kernelSMLSS is the production smlssSimFunc: the lane kernel.
func kernelSMLSS(s *SMLSS, ceiling int, proto stochastic.State, initLevel int) rangeFunc[smlssRoot] {
	sim := &smlssSim{
		s: s, proto: proto, initLevel: initLevel,
		bulk:    stochastic.AsBulk(s.Proc),
		kernels: make([]*smlssKernel, ceiling),
	}
	sim.arena.m = s.Plan.M()
	return sim.runRange
}

func (sim *smlssSim) runRange(ctx context.Context, lo, hi int64) ([]smlssRoot, error) {
	n := hi - lo
	entries := sim.arena.carve(int(n))
	out := make([]smlssRoot, n)
	for i := range out {
		out[i].entries = entries[i]
	}
	prefix, err := runLaneChunks(ctx, len(sim.kernels), n, func(w int, wlo, whi int64) int64 {
		k := sim.kernels[w]
		if k == nil {
			k = newSMLSSKernel(sim.s, sim.bulk, sim.proto, sim.initLevel)
			sim.kernels[w] = k
		}
		return k.runChunk(ctx, lo+wlo, out[wlo:whi])
	})
	if err != nil {
		return out[:prefix], err
	}
	return out, nil
}
