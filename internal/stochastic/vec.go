package stochastic

import "durability/internal/rng"

// Lane-vector storage for the built-in models. Every vec follows the
// same shape: lane states in one flat backing slice (so a batch of
// lanes is contiguous in memory and per-lane access is an index, not a
// pointer chase), a parallel []State of per-lane views handed to
// observers, and a spill slice with a free list for split entrance
// states. Nothing here is gob-encoded or persisted: vecs are transient
// per-worker scratch, rebuilt from the model on every run, which is why
// these types carry no gob registration (see internal/analysis/gobreg —
// only types reachable from a //durlint:gobroot need it).

// plainVec is the StateVec for models whose state is a plain value
// struct (no internal slices): Scalar, ChainState, RegimeState,
// QueueState. S is the state struct; PS is its pointer type, which must
// implement State.
type plainVec[S any, PS interface {
	*S
	State
}] struct {
	lane  []S
	views []State
	spill []S
	free  []int
	draw  normalDraws
}

// normalDraws is the scratch of a StepVec that draws its lanes' normals
// rng.LaneChunk at a time: the variates and NormLanes' working space.
// It lives in the lane vector, built once per kernel, so a call does not
// clear 1.5 KB of stack; every entry is written before it is read.
type normalDraws struct {
	eps [rng.LaneChunk]float64
	rng.NormScratch
}

func newPlainVec[S any, PS interface {
	*S
	State
}](lanes int) *plainVec[S, PS] {
	v := &plainVec[S, PS]{lane: make([]S, lanes), views: make([]State, lanes)}
	for i := range v.lane {
		v.views[i] = PS(&v.lane[i])
	}
	return v
}

func (v *plainVec[S, PS]) Lanes() int     { return len(v.lane) }
func (v *plainVec[S, PS]) Views() []State { return v.views }

func (v *plainVec[S, PS]) Load(i int, s State) { v.lane[i] = *(s.(PS)) }

func (v *plainVec[S, PS]) Save(i int) int {
	h := v.alloc()
	v.spill[h] = v.lane[i]
	return h
}

func (v *plainVec[S, PS]) Restore(i, h int) { v.lane[i] = v.spill[h] }

func (v *plainVec[S, PS]) Drop(h int) { v.free = append(v.free, h) }

// Read implements StateVec. ResolveReading gives a typed kind only to
// the vec type it reads, so each case's assertion holds.
func (v *plainVec[S, PS]) Read(r Reading, lanes []int, z []float64) {
	z = z[:len(lanes)]
	switch r.kind {
	case readScalar:
		lane := any(v).(*scalarVec).lane
		for p, i := range lanes {
			z[p] = lane[i].V
		}
	case readChain:
		lane := any(v).(*chainVec).lane
		for p, i := range lanes {
			z[p] = float64(lane[i].I)
		}
	case readRegime:
		lane := any(v).(*regimeVec).lane
		for p, i := range lanes {
			z[p] = lane[i].V
		}
	default:
		r.readViews(v.views, lanes, z)
	}
}

func (v *plainVec[S, PS]) alloc() int {
	if n := len(v.free); n > 0 {
		h := v.free[n-1]
		v.free = v.free[:n-1]
		return h
	}
	var zero S
	v.spill = append(v.spill, zero)
	return len(v.spill) - 1
}

// Concrete plain vecs. The type aliases keep the model files readable.
type (
	scalarVec = plainVec[Scalar, *Scalar]
	chainVec  = plainVec[ChainState, *ChainState]
	regimeVec = plainVec[RegimeState, *RegimeState]
)

func newScalarVec(lanes int) *scalarVec { return newPlainVec[Scalar, *Scalar](lanes) }
func newChainVec(lanes int) *chainVec   { return newPlainVec[ChainState, *ChainState](lanes) }
func newRegimeVec(lanes int) *regimeVec { return newPlainVec[RegimeState, *RegimeState](lanes) }

// queueVec is the tandem queue's plain vec plus the event clock its
// StepVec calls share (TandemQueue.clock), kept with the bits of the
// three rates it was built from. The zero clock is the one built from
// three +0 rates, so a new vec needs no flag to say it has none.
type queueVec struct {
	plainVec[QueueState, *QueueState]
	clock queueClock
	rates [3]uint64
}

func newQueueVec(lanes int) *queueVec {
	return &queueVec{plainVec: *newPlainVec[QueueState, *QueueState](lanes)}
}

// Read implements StateVec.
func (v *queueVec) Read(r Reading, lanes []int, z []float64) {
	z = z[:len(lanes)]
	switch r.kind {
	case readQueue1:
		for p, i := range lanes {
			z[p] = float64(v.lane[i].Q1)
		}
	case readQueue2:
		for p, i := range lanes {
			z[p] = float64(v.lane[i].Q2)
		}
	default:
		r.readViews(v.views, lanes, z)
	}
}

// arVec is the StateVec for AR(m): every lane's ring buffer is a
// window of one flat lanes*m backing array, so lane state is
// struct-of-arrays contiguous and Load/Save/Restore are memmoves.
type arVec struct {
	m     int
	buf   []float64 // lanes*m flat history backing
	lane  []ARState // hist of lane i subslices buf[i*m : (i+1)*m]
	views []State
	spill []ARState // each slot owns its own m-float history
	free  []int
	draw  normalDraws
}

func newARVec(m, lanes int) *arVec {
	v := &arVec{
		m:     m,
		buf:   make([]float64, lanes*m),
		lane:  make([]ARState, lanes),
		views: make([]State, lanes),
	}
	for i := range v.lane {
		v.lane[i].hist = v.buf[i*m : (i+1)*m : (i+1)*m]
		v.views[i] = &v.lane[i]
	}
	return v
}

func (v *arVec) Lanes() int     { return len(v.lane) }
func (v *arVec) Views() []State { return v.views }

func (v *arVec) Load(i int, s State) {
	as := s.(*ARState)
	copy(v.lane[i].hist, as.hist)
	v.lane[i].head = as.head
}

func (v *arVec) Save(i int) int {
	h := v.alloc()
	copy(v.spill[h].hist, v.lane[i].hist)
	v.spill[h].head = v.lane[i].head
	return h
}

func (v *arVec) Restore(i, h int) {
	copy(v.lane[i].hist, v.spill[h].hist)
	v.lane[i].head = v.spill[h].head
}

func (v *arVec) Drop(h int) { v.free = append(v.free, h) }

// Read implements StateVec.
func (v *arVec) Read(r Reading, lanes []int, z []float64) {
	if r.kind != readAR {
		r.readViews(v.views, lanes, z)
		return
	}
	z = z[:len(lanes)]
	for p, i := range lanes {
		z[p] = v.lane[i].Current()
	}
}

func (v *arVec) alloc() int {
	if n := len(v.free); n > 0 {
		h := v.free[n-1]
		v.free = v.free[:n-1]
		return h
	}
	v.spill = append(v.spill, ARState{hist: make([]float64, v.m)})
	return len(v.spill) - 1
}
