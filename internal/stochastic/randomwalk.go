package stochastic

import "durability/internal/rng"

// RandomWalk is the textbook Gaussian random walk
//
//	X_t = X_{t-1} + Drift + Sigma * eps_t,   eps_t ~ N(0,1).
//
// It is the simplest process with a known first-hitting distribution, which
// makes it the reference model for the unbiasedness tests: analytical
// hitting probabilities can be computed to high accuracy and compared
// against SRS and MLSS estimates.
type RandomWalk struct {
	Start float64 // X_0
	Drift float64 // per-step drift
	Sigma float64 // per-step noise standard deviation
}

// Name implements Process.
func (w *RandomWalk) Name() string { return "random-walk" }

// Initial implements Process.
func (w *RandomWalk) Initial() State { return &Scalar{V: w.Start} }

// Step implements Process.
func (w *RandomWalk) Step(s State, _ int, src *rng.Source) {
	sc := s.(*Scalar)
	sc.V += w.Drift + w.Sigma*src.Norm()
}

// NewStateVec implements BulkProcess.
func (w *RandomWalk) NewStateVec(lanes int) StateVec { return newScalarVec(lanes) }

// StepVec implements BulkProcess: Step's arithmetic per lane, its
// normals drawn rng.LaneChunk lanes at a time (rng.NormScratch.NormLanes).
func (w *RandomWalk) StepVec(v StateVec, lanes []int, _ []int, src []*rng.Source) {
	sv := v.(*scalarVec)
	eps := &sv.draw.eps
	for len(lanes) > 0 {
		n := sv.draw.NormLanes(eps[:], lanes, src)
		for k, i := range lanes[:n] {
			sv.lane[i].V += w.Drift + w.Sigma*eps[k]
		}
		lanes = lanes[n:]
	}
}
