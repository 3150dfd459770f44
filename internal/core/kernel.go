package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"durability/internal/rng"
	"durability/internal/stochastic"
)

// This file implements the vectorized simulation kernel: instead of
// recursing through one root-path tree at a time, each kernel drives a
// frontier of lanes — one lane per in-flight root — in lockstep through
// the model's bulk step (stochastic.BulkProcess.StepVec), amortizing
// per-step dispatch across the whole frontier and keeping lane state in
// flat vector storage.
//
// The kernel is the only sampler implementation: models without a
// native bulk form run through it behind stochastic.Lanes. It follows
// the depth-first recursion of §3/§4 (kept as the test oracle in
// reference_test.go) exactly. A lane is a whole root: all of a root's
// randomness comes from its own substream, and the recursion's
// depth-first order through the splitting tree is replicated by an
// explicit frame stack, so the draw sequence on each substream — and
// therefore every floating-point value, in the exact accumulation
// order — is bit-for-bit the recursion's.

// defaultLanes is the lane-frontier width per kernel. Wide enough to
// amortize the per-round bookkeeping, small enough that the frontier's
// state vectors stay cache-resident for every built-in model.
const defaultLanes = 64

// kframe is one pending split of the depth-first tree walk: the
// spilled entrance state plus the offspring accounting the recursion
// keeps in its call frame. level is the landing level (the
// level the offspring segments watch from for g-MLSS, or the child
// watch level for s-MLSS).
type kframe struct {
	spill   int // StateVec spill handle of the split entrance state
	t       int // entrance time; offspring resume at t+1
	level   int
	ratio   int
	done    int // offspring completed so far
	crossed int // offspring that crossed the next boundary (g-MLSS)
}

// counterArena carves per-root Counters out of one flat backing array,
// recycled batch to batch. Every driver folds each root's counters into
// its groups (groupRoots copies them out) before the next batch starts,
// so the backing can be zeroed and reused: one allocation amortized over
// the run instead of one per root.
type counterArena struct {
	m   int
	buf []float64
	cnt []Counters
}

func (a *counterArena) carve(n int) []Counters {
	stride := countersStride(a.m)
	need := n * stride
	if cap(a.buf) < need {
		a.buf = make([]float64, need)
	} else {
		a.buf = a.buf[:need]
		clear(a.buf)
	}
	if cap(a.cnt) < n {
		a.cnt = make([]Counters, n)
	}
	a.cnt = a.cnt[:n]
	for i := 0; i < n; i++ {
		a.cnt[i] = countersFrom(a.buf[i*stride:(i+1)*stride], a.m)
	}
	return a.cnt
}

// entryArena is counterArena's analog for the s-MLSS per-root
// first-landing counts.
type entryArena struct {
	m   int
	buf []int64
	ent [][]int64
}

func (a *entryArena) carve(n int) [][]int64 {
	stride := a.m + 1
	need := n * stride
	if cap(a.buf) < need {
		a.buf = make([]int64, need)
	} else {
		a.buf = a.buf[:need]
		clear(a.buf)
	}
	if cap(a.ent) < n {
		a.ent = make([][]int64, n)
	}
	a.ent = a.ent[:n]
	for i := 0; i < n; i++ {
		a.ent[i] = a.buf[i*stride : (i+1)*stride : (i+1)*stride]
	}
	return a.ent
}

// stepping counts the goroutines stepping lane kernels, process-wide:
// each sampler loop or root-range call counts its own goroutine
// (occupy), and each helper kernel lent to a round counts while it runs.
// GOMAXPROCS minus stepping is the number of idle CPUs a round may
// borrow, so a saturated process lends nothing.
var stepping atomic.Int64

// lent counts the helper kernels borrowed since the process started.
var lent atomic.Int64

// LentKernels reports how many helper kernels rounds have borrowed since
// the process started. It is a diagnostic: tests read it to check that a
// round lends only idle CPUs.
func LentKernels() int64 { return lent.Load() }

// occupiedKey marks a context whose goroutine occupy already counts.
type occupiedKey struct{}

// occupy counts the calling goroutine as stepping until release runs.
// The returned context carries the mark, so a sampler call nested on the
// same goroutine — exec.Local's RunRootsBy inside Pool.Run — does not
// count it twice, and a loop keeps its CPU across the gaps between its
// rounds instead of lending it to another query's round.
func occupy(ctx context.Context) (context.Context, func()) {
	if ctx.Value(occupiedKey{}) != nil {
		return ctx, func() {}
	}
	stepping.Add(1)
	return context.WithValue(ctx, occupiedKey{}, true), func() { stepping.Add(-1) }
}

// borrow claims up to want idle CPUs for helper kernels and returns how
// many it claimed; each claimed CPU is returned by stepping.Add(-1).
// Width-1 rounds (want 0) return before runtime.GOMAXPROCS, which takes
// the scheduler's lock.
func borrow(want int) int {
	if want <= 0 {
		return 0
	}
	procs := int64(runtime.GOMAXPROCS(0))
	for {
		s := stepping.Load()
		k := min(int64(want), procs-s)
		if k <= 0 {
			return 0
		}
		if stepping.CompareAndSwap(s, s+k) {
			lent.Add(k)
			return int(k)
		}
	}
}

// width resolves a Workers setting to the ceiling on the kernels one
// round may step at once: the setting itself, or GOMAXPROCS when <= 0.
func width(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// cancelled reports whether done (a ctx.Done() captured once per chunk)
// is closed. Unlike ctx.Err, the receive takes no lock, so the kernels
// can poll it every lockstep round while the helpers of one query, or
// the shards of one tick, share a context.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// runLaneChunks fans the range [0, n) out over lane kernels: the calling
// goroutine always steps chunk 0, and each idle CPU the process has when
// the round starts joins as a helper kernel, up to ceiling kernels in all
// (and at most one per root). The range is cut into one contiguous chunk
// per kernel, and chunk(w, wlo, whi) returns how many roots from wlo on
// completed. Root paths are independent (§3.1 "Parallel Computations")
// and every root draws from its own substream, so results are
// independent of the width and of goroutine scheduling. On cancellation
// the completed range is the longest contiguous prefix of finished roots
// — the contract callers rely on for deterministic resume: roots a later
// kernel finished beyond the first gap are discarded, since they cannot
// be reported without leaving a hole in the index space.
func runLaneChunks(ctx context.Context, ceiling int, n int64, chunk func(w int, wlo, whi int64) int64) (int64, error) {
	kernels := 1 + borrow(int(min(int64(ceiling), n))-1)
	bound := func(w int) int64 { return n * int64(w) / int64(kernels) }
	done := make([]int64, kernels)
	var wg sync.WaitGroup
	for w := 1; w < kernels; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer stepping.Add(-1)
			done[w] = chunk(w, bound(w), bound(w+1))
		}()
	}
	done[0] = chunk(0, 0, bound(1))
	wg.Wait()
	if cancelled(ctx.Done()) {
		for w := range done {
			if lo := bound(w); done[w] < bound(w+1)-lo {
				return lo + done[w], ctx.Err()
			}
		}
		return n, ctx.Err()
	}
	return n, nil
}

// laneSet is the per-worker lane plumbing shared by both kernels: the
// model's state vector with its per-lane views (the slice is stable;
// its elements may be replaced by Load/Restore, so the kernels index
// views at the point of use and never hold an element), one pooled
// Source per lane (re-seeded per root, so the per-root substream
// contract holds without a per-root allocation), the per-lane time
// cursors and frame stacks, and the root currently simulated by each
// lane.
type laneSet struct {
	vec    stochastic.StateVec
	views  []stochastic.State
	srcs   []rng.Source
	srcPtr []*rng.Source
	t      []int // time of the step each lane is about to take
	frames [][]kframe
	root   []int   // chunk-local index of the root each lane simulates
	lsteps []int64 // steps taken for the lane's current root, flushed on completion

	active []int

	// chunk-run cursor state
	base      int64 // global index of the chunk's first root
	next      int   // next chunk-local root to assign to a freed lane
	total     int   // roots in the current chunk
	completed []bool
}

func (ls *laneSet) init(bulk stochastic.BulkProcess) {
	ls.vec = bulk.NewStateVec(defaultLanes)
	ls.views = ls.vec.Views()
	ls.srcs = make([]rng.Source, defaultLanes)
	ls.srcPtr = make([]*rng.Source, defaultLanes)
	for i := range ls.srcs {
		ls.srcPtr[i] = &ls.srcs[i]
	}
	ls.t = make([]int, defaultLanes)
	ls.frames = make([][]kframe, defaultLanes)
	ls.root = make([]int, defaultLanes)
	ls.lsteps = make([]int64, defaultLanes)
	ls.active = make([]int, 0, defaultLanes)
}

// beginChunk resets the cursor state for a chunk of n roots starting at
// global index base.
func (ls *laneSet) beginChunk(base int64, n int) {
	ls.base = base
	ls.next = 0
	ls.total = n
	if cap(ls.completed) < n {
		ls.completed = make([]bool, n)
	} else {
		ls.completed = ls.completed[:n]
		for i := range ls.completed {
			ls.completed[i] = false
		}
	}
	ls.active = ls.active[:0]
}

// completedPrefix returns the contiguous count of finished roots from
// the chunk start (total unless the chunk was cancelled mid-flight).
func (ls *laneSet) completedPrefix() int64 {
	p := int64(0)
	for p < int64(ls.total) && ls.completed[p] {
		p++
	}
	return p
}

// gmlssKernel drives one kernel's lane frontier through the g-MLSS
// tree walk. advance replicates the recursion's per-step bookkeeping;
// finishSegment replicates its unwinding.
type gmlssKernel struct {
	laneSet
	g         *GMLSS
	bulk      stochastic.BulkProcess
	proto     stochastic.State
	initLevel int
	initB     float64 // Boundary(initLevel+1)
	m         int
	value     ValueFunc // Query.Value, cached off the hot loop's pointer chase
	horizon   int

	curr  []int     // current level per lane
	nextB []float64 // Boundary(curr+1) per lane, fixed per segment
	out   []gmlssRoot
}

func newGMLSSKernel(g *GMLSS, bulk stochastic.BulkProcess, proto stochastic.State, initLevel int) *gmlssKernel {
	k := &gmlssKernel{
		g:         g,
		bulk:      bulk,
		proto:     proto,
		initLevel: initLevel,
		initB:     g.Plan.Boundary(initLevel + 1),
		m:         g.Plan.M(),
		value:     g.Query.Value,
		horizon:   g.Query.Horizon,
	}
	k.laneSet.init(bulk)
	k.curr = make([]int, defaultLanes)
	k.nextB = make([]float64, defaultLanes)
	return k
}

// runChunk simulates roots [base, base+len(out)) into out and returns
// the contiguous count of completed roots from the chunk start.
func (k *gmlssKernel) runChunk(ctx context.Context, base int64, out []gmlssRoot) int64 {
	k.out = out
	k.beginChunk(base, len(out))
	for i := 0; i < len(k.t) && k.next < k.total; i++ {
		k.startRoot(i)
		k.active = append(k.active, i)
	}
	done := ctx.Done()
	for len(k.active) > 0 && !cancelled(done) {
		k.bulk.StepVec(k.vec, k.active, k.t, k.srcPtr)
		w := 0
		for _, i := range k.active {
			// The no-crossing, sub-horizon regime is inlined here: one
			// observer call, two compares, a time bump. Everything rarer
			// goes through advance.
			k.lsteps[i]++
			t := k.t[i]
			f := k.value(k.views[i], t)
			if f < k.nextB[i] && t < k.horizon {
				k.t[i] = t + 1
				k.active[w] = i
				w++
				continue
			}
			if k.advance(i, t, f) {
				k.active[w] = i
				w++
			}
		}
		k.active = k.active[:w]
	}
	return k.completedPrefix()
}

// startRoot points lane i at the next unassigned root of the chunk.
func (k *gmlssKernel) startRoot(i int) {
	local := k.next
	k.next++
	k.root[i] = local
	k.srcs[i].SeedStream(k.g.Seed, uint64(k.base+int64(local)))
	k.vec.Load(i, k.proto)
	k.curr[i] = k.initLevel
	k.nextB[i] = k.initB
	k.t[i] = 1
	k.lsteps[i] = 0
	k.frames[i] = k.frames[i][:0]
}

// advance books the cold outcomes of the step lane i just took at time
// t with observed value f — a boundary crossing or the horizon — and
// reports whether the lane still has work. runChunk's loop handles the
// hot no-crossing regime inline; by the caller's filter, reaching here
// means f >= nextB or t >= horizon.
func (k *gmlssKernel) advance(i, t int, f float64) bool {
	if f < k.nextB[i] {
		return k.finishSegment(i, false)
	}
	out := &k.out[k.root[i]]
	j := k.g.Plan.LevelOf(f)
	for lvl := k.curr[i] + 1; lvl < j; lvl++ {
		out.counters.Skip[lvl]++
	}
	if j == k.m {
		out.counters.Hits++
		return k.finishSegment(i, true)
	}
	out.counters.Land[j]++
	ratio := k.g.ratioAt(j)
	if t >= k.horizon {
		// The split lands exactly at the horizon: every offspring's
		// time loop is empty, so none crosses and no randomness is
		// drawn. Book the zero advancement fraction directly.
		out.counters.Mu[j] += 0
		return k.finishSegment(i, true)
	}
	k.frames[i] = append(k.frames[i], kframe{spill: k.vec.Save(i), t: t, level: j, ratio: ratio})
	// The first offspring continues in-lane: its state is the entrance
	// state the lane already holds.
	k.curr[i] = j
	k.nextB[i] = k.g.Plan.Boundary(j + 1)
	k.t[i] = t + 1
	return true
}

// finishSegment unwinds the frame stack after lane i's current segment
// ended (crossed tells whether it crossed its watched boundary),
// starting the next offspring or resolving finished splits, exactly as
// the recursion's returns do. When the stack empties the root is
// complete and the lane takes the next root, if any.
func (k *gmlssKernel) finishSegment(i int, crossed bool) bool {
	out := &k.out[k.root[i]]
	for {
		stack := k.frames[i]
		if len(stack) == 0 {
			out.steps += k.lsteps[i]
			k.lsteps[i] = 0
			k.completed[k.root[i]] = true
			if k.next < k.total {
				k.startRoot(i)
				return true
			}
			return false
		}
		fr := &stack[len(stack)-1]
		if crossed {
			fr.crossed++
		}
		fr.done++
		if fr.done < fr.ratio {
			// Next offspring restarts from the spilled entrance state.
			k.vec.Restore(i, fr.spill)
			k.curr[i] = fr.level
			k.nextB[i] = k.g.Plan.Boundary(fr.level + 1)
			k.t[i] = fr.t + 1 // fr.t < Horizon by the push condition
			return true
		}
		frac := float64(fr.crossed) / float64(fr.ratio)
		out.counters.Mu[fr.level] += frac
		k.vec.Drop(fr.spill)
		k.frames[i] = stack[:len(stack)-1]
		// The finished split's segment itself crossed (it landed): keep
		// unwinding as a crossing return.
		crossed = true
	}
}

// smlssKernel drives one kernel's lane frontier through the s-MLSS
// tree walk.
type smlssKernel struct {
	laneSet
	s         *SMLSS
	bulk      stochastic.BulkProcess
	proto     stochastic.State
	initWatch int
	m         int
	value     ValueFunc
	horizon   int

	watch []int
	loB   []float64
	hiB   []float64
	out   []smlssRoot
}

func newSMLSSKernel(s *SMLSS, bulk stochastic.BulkProcess, proto stochastic.State, initLevel int) *smlssKernel {
	k := &smlssKernel{
		s:         s,
		bulk:      bulk,
		proto:     proto,
		initWatch: initLevel + 1,
		m:         s.Plan.M(),
		value:     s.Query.Value,
		horizon:   s.Query.Horizon,
	}
	k.laneSet.init(bulk)
	k.watch = make([]int, defaultLanes)
	k.loB = make([]float64, defaultLanes)
	k.hiB = make([]float64, defaultLanes)
	return k
}

func (k *smlssKernel) runChunk(ctx context.Context, base int64, out []smlssRoot) int64 {
	k.out = out
	k.beginChunk(base, len(out))
	for i := 0; i < len(k.t) && k.next < k.total; i++ {
		k.startRoot(i)
		k.active = append(k.active, i)
	}
	done := ctx.Done()
	for len(k.active) > 0 && !cancelled(done) {
		k.bulk.StepVec(k.vec, k.active, k.t, k.srcPtr)
		w := 0
		for _, i := range k.active {
			// Inline hot path: the step neither landed in the watched
			// interval (nor hit the target) nor reached the horizon.
			k.lsteps[i]++
			t := k.t[i]
			f := k.value(k.views[i], t)
			wl := k.watch[i]
			if wl == k.m {
				if f < 1 && t < k.horizon {
					k.t[i] = t + 1
					k.active[w] = i
					w++
					continue
				}
			} else if (f < k.loB[i] || f >= k.hiB[i]) && t < k.horizon {
				k.t[i] = t + 1
				k.active[w] = i
				w++
				continue
			}
			if k.advance(i, t, f) {
				k.active[w] = i
				w++
			}
		}
		k.active = k.active[:w]
	}
	return k.completedPrefix()
}

func (k *smlssKernel) startRoot(i int) {
	local := k.next
	k.next++
	k.root[i] = local
	k.srcs[i].SeedStream(k.s.Seed, uint64(k.base+int64(local)))
	k.vec.Load(i, k.proto)
	k.setWatch(i, k.initWatch)
	k.t[i] = 1
	k.lsteps[i] = 0
	k.frames[i] = k.frames[i][:0]
}

// setWatch points lane i at watch level w and caches its interval.
func (k *smlssKernel) setWatch(i, w int) {
	k.watch[i] = w
	if w < k.m {
		k.loB[i] = k.s.Plan.Boundary(w)
		k.hiB[i] = k.s.Plan.Boundary(w + 1)
	}
}

// advance books the cold outcomes for lane i at time t with value f: a
// landing, a target hit, or the horizon. runChunk's loop keeps the hot
// no-landing regime inline.
func (k *smlssKernel) advance(i, t int, f float64) bool {
	w := k.watch[i]
	if w == k.m {
		if f >= 1 {
			out := &k.out[k.root[i]]
			out.hits++
			out.entries[k.m]++
			return k.finishSegment(i)
		}
	} else if f >= k.loB[i] && f < k.hiB[i] {
		out := &k.out[k.root[i]]
		out.entries[w]++
		if t >= k.horizon {
			// Landing at the horizon: every offspring's time loop is
			// empty, so the whole subtree resolves with no randomness.
			return k.finishSegment(i)
		}
		k.frames[i] = append(k.frames[i], kframe{spill: k.vec.Save(i), t: t, level: w + 1, ratio: k.s.Ratio})
		k.setWatch(i, w+1)
		k.t[i] = t + 1
		return true
	}
	if t >= k.horizon {
		return k.finishSegment(i)
	}
	k.t[i] = t + 1
	return true
}

func (k *smlssKernel) finishSegment(i int) bool {
	for {
		stack := k.frames[i]
		if len(stack) == 0 {
			k.out[k.root[i]].steps += k.lsteps[i]
			k.lsteps[i] = 0
			k.completed[k.root[i]] = true
			if k.next < k.total {
				k.startRoot(i)
				return true
			}
			return false
		}
		fr := &stack[len(stack)-1]
		fr.done++
		if fr.done < fr.ratio {
			k.vec.Restore(i, fr.spill)
			k.setWatch(i, fr.level)
			k.t[i] = fr.t + 1
			return true
		}
		k.vec.Drop(fr.spill)
		k.frames[i] = stack[:len(stack)-1]
	}
}
