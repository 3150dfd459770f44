package stochastic

import "durability/internal/rng"

// This file defines the optional bulk-stepping contract the vectorized
// simulation kernel (internal/core) drives: a model that implements
// BulkProcess advances many independent simulation lanes in one call,
// amortizing the per-step interface dispatch of Process.Step across a
// whole batch and keeping every lane's state in flat, preallocated
// vector storage. A model that does not implement BulkProcess — any
// black-box Process — runs through the same kernel behind the Lanes
// adapter, one Step call per lane.
//
// The contract is numerics-preserving by construction: each lane draws
// from its own rng.Source (the per-root substream the samplers already
// assign), and StepVec must perform, per lane, the exact floating-point
// operations Step performs in the exact order. A native bulk run is
// therefore bit-for-bit equal to the same model stepped one Step at a
// time behind Lanes — the repository's standing invariant — and the
// only thing the native form changes is how much the hardware charges
// per step.

// StateVec is a batch of independent simulation lane states held in
// flat vector storage, plus a spill area for split entrance states.
// A vec is built by the model that steps it (NewStateVec), so the
// concrete layout is model-private; samplers drive it only through this
// interface and through per-lane State views.
//
// A StateVec is not safe for concurrent use; the kernel builds one per
// worker.
type StateVec interface {
	// Lanes returns the lane capacity fixed at construction.
	Lanes() int
	// Views returns one State per lane: Views()[i] always reflects lane
	// i's current state, with the same concrete type the model's Initial
	// returns, so observers and value functions apply unchanged. The
	// slice itself is stable for the life of the vec, but element i may
	// be replaced by Load or Restore of lane i, so callers index the
	// slice at the point of use and never retain an element across
	// either call. A view must never be stepped independently (copy out
	// with Clone first).
	Views() []State
	// Load copies the scalar state s into lane i. s must have the
	// concrete type the model's Initial returns.
	Load(i int, s State)
	// Save copies lane i into a pooled spill slot and returns its
	// handle. Spill slots hold split entrance states; they are reused
	// through a free list, so a balanced Save/Drop pattern allocates
	// only at the high-water mark.
	Save(i int) int
	// Restore copies spill slot h back into lane i. The slot stays
	// valid until Drop.
	Restore(i, h int)
	// Drop returns spill slot h to the free list.
	Drop(h int)
	// Read fills z[p] with r's reading of lane lanes[p], for every
	// position p in lanes; len(z) >= len(lanes). r must have been
	// resolved against this vec (ResolveReading). Each reading must equal,
	// bit for bit, r's observer applied to Views()[lanes[p]] — NaN
	// payloads and signed zeros included — so a sampler that tests
	// readings decides exactly as one calling the observer per lane. A
	// typed loop is the observer's own arithmetic on the lane's storage;
	// every other observer is called on the view.
	Read(r Reading, lanes []int, z []float64)
}

// BulkProcess is the optional fast-path extension of Process: a model
// that can advance many lanes per call. The simulation kernel takes
// every model in this form (AsBulk); black-box models reach it through
// the Lanes adapter.
type BulkProcess interface {
	Process
	// NewStateVec allocates a lane vector for this model.
	NewStateVec(lanes int) StateVec
	// StepVec advances each lane listed in lanes from time t[i]-1 to
	// t[i], drawing lane i's randomness from src[i]. t and src are
	// indexed by lane id (not by position in lanes). The per-lane
	// arithmetic and draw sequence must be identical to one Step call
	// on that lane's state — bulk and scalar runs must agree
	// bit-for-bit.
	StepVec(v StateVec, lanes []int, t []int, src []*rng.Source)
}

// AsBulk returns p's native bulk form, or Lanes(p) when p has none.
func AsBulk(p Process) BulkProcess {
	if bp, ok := p.(BulkProcess); ok {
		return bp
	}
	return Lanes(p)
}

// Lanes adapts any Process to BulkProcess: each lane holds a boxed State,
// Load, Save and Restore each Clone it, and StepVec calls Step once per
// listed lane. The per-lane draw sequence is therefore Step's own, so a
// black-box model runs through the lane kernel bit-for-bit as its scalar
// recursion would. Lanes adapts even a model with a native bulk form,
// which is how tests and benchmarks run one model down both, and the
// escape hatch should a native form ever be suspect.
func Lanes(p Process) BulkProcess { return lanes{p} }

// lanes promotes only Process's methods from the wrapped model, so the
// adapter's NewStateVec and StepVec are always the ones that run.
type lanes struct{ Process }

func (p lanes) NewStateVec(n int) StateVec { return &boxedVec{lane: make([]State, n)} }

func (p lanes) StepVec(v StateVec, active []int, t []int, src []*rng.Source) {
	lane := v.(*boxedVec).lane
	for _, i := range active {
		p.Step(lane[i], t[i], src[i])
	}
}

// boxedVec is the adapter's StateVec: the lane slice doubles as Views(),
// and Load/Restore replace its elements with fresh clones.
type boxedVec struct {
	lane  []State
	spill []State
	free  []int
}

func (v *boxedVec) Lanes() int          { return len(v.lane) }
func (v *boxedVec) Views() []State      { return v.lane }
func (v *boxedVec) Load(i int, s State) { v.lane[i] = s.Clone() }
func (v *boxedVec) Restore(i, h int)    { v.lane[i] = v.spill[h].Clone() }

// Read implements StateVec: a boxed lane is read through its view, so a
// model behind the adapter always takes its observer's own call.
func (v *boxedVec) Read(r Reading, lanes []int, z []float64) { r.readViews(v.lane, lanes, z) }

func (v *boxedVec) Save(i int) int {
	if n := len(v.free); n > 0 {
		h := v.free[n-1]
		v.free = v.free[:n-1]
		v.spill[h] = v.lane[i].Clone()
		return h
	}
	v.spill = append(v.spill, v.lane[i].Clone())
	return len(v.spill) - 1
}

func (v *boxedVec) Drop(h int) {
	v.spill[h] = nil
	v.free = append(v.free, h)
}

// Compile-time checks: every built-in model ships a bulk fast path.
var (
	_ BulkProcess = (*GBM)(nil)
	_ BulkProcess = (*RandomWalk)(nil)
	_ BulkProcess = (*AR)(nil)
	_ BulkProcess = (*CompoundPoisson)(nil)
	_ BulkProcess = (*MarkovChain)(nil)
	_ BulkProcess = (*RegimeSwitching)(nil)
	_ BulkProcess = (*TandemQueue)(nil)
)
