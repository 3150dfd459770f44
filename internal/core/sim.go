package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"

	"durability/internal/stochastic"
)

// The g-MLSS simulation runs in a workspace that outlives the call: the
// lane kernels (one per chunk slot of a round, runLaneChunks, built the
// first time a round is that wide) with their lane sets, frame stacks
// and spill slots, the counter arena and the per-root result slice. Idle
// workspaces wait on a process-wide free list; each RunRootsBy,
// FoldRoots or Run call takes one, rebinds it to its sampler (plan,
// query, seed, start prototype) and returns it, so a standing query's
// refresh rounds, a batch's rounds and a one-shot query's rounds stop
// rebuilding it. Lane state is rebuilt only when the model changes.
// Every model runs through the kernel: stochastic.AsBulk supplies the
// model's native bulk form, or the Lanes adapter for a black-box model.
// The start prototype is loaded into a lane per root: expensive
// initializers (neural warmup replay) run once per call, not per root.
//
// The s-MLSS sim keeps the older per-run shape: it builds its kernels
// and arena once per Run or Trial and drops them after.
//
// The drivers receive the simulation through a function that builds it
// (kernelGMLSS / kernelSMLSS), so the differential tests can run the
// reference recursion (reference_test.go) under the very same drivers.

// rangeFunc simulates root paths [lo, hi), one result per index. On
// cancellation it returns the longest contiguous prefix of completed
// roots with the context's error. Results may alias per-run arenas:
// callers fold them before the next call, which every driver does.
type rangeFunc[T any] func(ctx context.Context, lo, hi int64) ([]T, error)

// gmlssSim is the root-range simulation of one g-MLSS call. runRange is
// a rangeFunc; release ends the call, after which its results are gone.
type gmlssSim interface {
	runRange(ctx context.Context, lo, hi int64) ([]gmlssRoot, error)
	release()
}

// gmlssSimFunc builds the root-range simulation of one GMLSS call.
type gmlssSimFunc func(g *GMLSS, ceiling int, proto stochastic.State, initLevel int) gmlssSim

// smlssSimFunc builds the root-range simulation of one SMLSS run.
type smlssSimFunc func(s *SMLSS, ceiling int, proto stochastic.State, initLevel int) rangeFunc[smlssRoot]

// slabRoots bounds the roots one runRange call covers (eachRoot cuts
// longer ranges into slabs), so a workspace's per-root storage stays
// bounded however long a range a caller asks for.
const slabRoots = 1024

// maxSpares bounds the free list at two workspaces per CPU: at most
// GOMAXPROCS calls run at once, plus callers preempted mid-call. It only
// caps what idle workspaces keep alive: a burst of more calls at once
// builds the extra workspaces and lets the collector have them.
var maxSpares = 2 * runtime.GOMAXPROCS(0)

// spares is the free list of idle g-MLSS workspaces.
var spares struct {
	sync.Mutex
	free []*gmlssWorkspace
}

// gmlssWorkspace is the g-MLSS simulation state one call at a time
// borrows: see the top of this file.
type gmlssWorkspace struct {
	// g is the bound call's sampler, copied so the caller's may live on
	// its stack; the kernels point at it.
	g         GMLSS
	proto     stochastic.State
	initLevel int
	ceiling   int

	bulk    stochastic.BulkProcess // the model the kernels' lane state was built for
	kernels []*gmlssKernel         // one per chunk slot a round may use, built lazily
	arena   counterArena
	out     []gmlssRoot
}

// kernelGMLSS is the production gmlssSimFunc: a workspace from the free
// list, bound to g.
func kernelGMLSS(g *GMLSS, ceiling int, proto stochastic.State, initLevel int) gmlssSim {
	bulk := stochastic.AsBulk(g.Proc)
	ws := acquire(bulk)
	ws.bind(g, bulk, ceiling, proto, initLevel)
	return ws
}

// acquire takes an idle workspace off the free list, preferring one whose
// lane state was built for bulk, or makes a new one.
func acquire(bulk stochastic.BulkProcess) *gmlssWorkspace {
	spares.Lock()
	defer spares.Unlock()
	n := len(spares.free)
	if n == 0 {
		return &gmlssWorkspace{}
	}
	pick := n - 1
	for i := n - 1; i >= 0; i-- {
		if sameModel(spares.free[i].bulk, bulk) {
			pick = i
			break
		}
	}
	ws := spares.free[pick]
	spares.free[pick] = spares.free[n-1]
	spares.free[n-1] = nil
	spares.free = spares.free[:n-1]
	return ws
}

// sameModel reports whether a and b are the same model value. A model
// value that cannot be compared (== would panic on it) never matches, so
// its workspace rebuilds lane state on every call.
func sameModel(a, b stochastic.BulkProcess) bool {
	if a == nil || b == nil {
		return false
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Type() == vb.Type() && va.Comparable() && va.Equal(vb)
}

// bind points the workspace at one call. Kernels whose lane state was
// built for another model are dropped and rebuilt on first use.
func (ws *gmlssWorkspace) bind(g *GMLSS, bulk stochastic.BulkProcess, ceiling int, proto stochastic.State, initLevel int) {
	ws.g = *g
	ws.proto, ws.initLevel, ws.ceiling = proto, initLevel, ceiling
	ws.arena.m = g.Plan.M()
	if !sameModel(ws.bulk, bulk) {
		ws.bulk = bulk
		clear(ws.kernels)
	}
	for len(ws.kernels) < ceiling {
		ws.kernels = append(ws.kernels, nil)
	}
	for _, k := range ws.kernels {
		if k != nil {
			k.bind(&ws.g, proto, initLevel)
		}
	}
}

// release unbinds the workspace and returns it to the free list.
func (ws *gmlssWorkspace) release() {
	ws.g, ws.proto = GMLSS{}, nil
	for _, k := range ws.kernels {
		if k != nil {
			k.unbind()
		}
	}
	spares.Lock()
	defer spares.Unlock()
	if len(spares.free) < maxSpares {
		spares.free = append(spares.free, ws)
	}
}

// kernel returns chunk slot w's kernel, building and binding it on first
// use. Each slot is touched only by the goroutine stepping it.
func (ws *gmlssWorkspace) kernel(w int) *gmlssKernel {
	k := ws.kernels[w]
	if k == nil {
		k = newGMLSSKernel(ws.bulk)
		k.bind(&ws.g, ws.proto, ws.initLevel)
		ws.kernels[w] = k
	}
	return k
}

// runRange implements gmlssSim. Its results alias the workspace's arena
// and result slice until the next call.
func (ws *gmlssWorkspace) runRange(ctx context.Context, lo, hi int64) ([]gmlssRoot, error) {
	n := int(hi - lo)
	if cap(ws.out) < n {
		ws.out = make([]gmlssRoot, n)
	}
	out := ws.out[:n]
	ws.arena.carve(out)
	prefix, err := runLaneChunks(ctx, ws.ceiling, hi-lo, func(w int, wlo, whi int64) int64 {
		return ws.kernel(w).runChunk(ctx, lo+wlo, out[wlo:whi])
	})
	return out[:prefix], err
}

// eachRoot simulates roots [lo, hi) through sim, slab by slab, and hands
// each completed root to fold in root order with its offset from lo. It
// returns how many roots completed: all of them, or on an error the
// longest contiguous prefix, with the error.
func eachRoot(ctx context.Context, sim gmlssSim, lo, hi int64, fold func(i int64, r *gmlssRoot)) (int64, error) {
	for next := lo; next < hi; {
		roots, err := sim.runRange(ctx, next, min(hi, next+slabRoots))
		for i := range roots {
			fold(next-lo+int64(i), &roots[i])
		}
		next += int64(len(roots))
		if err != nil {
			return next - lo, err
		}
	}
	return hi - lo, nil
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
