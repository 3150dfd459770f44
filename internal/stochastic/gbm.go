package stochastic

import (
	"math"

	"durability/internal/rng"
	"durability/internal/vmath"
)

// GBM is geometric Brownian motion observed at unit time steps:
//
//	S_t = S_{t-1} * exp((Mu - Sigma^2/2) + Sigma * eps_t)
//
// It serves two roles: the training-data generator for the LSTM-MDN stock
// model (the stand-in for the paper's Google daily price series, see
// DESIGN.md §5), and a cheap analytically tractable price process for
// examples and tests.
type GBM struct {
	S0    float64 // initial price
	Mu    float64 // per-step log drift
	Sigma float64 // per-step log volatility
}

// Name implements Process.
func (g *GBM) Name() string { return "gbm" }

// Initial implements Process.
func (g *GBM) Initial() State { return &Scalar{V: g.S0} }

// Step implements Process.
func (g *GBM) Step(s State, _ int, src *rng.Source) {
	sc := s.(*Scalar)
	sc.V *= math.Exp(g.Mu - g.Sigma*g.Sigma/2 + g.Sigma*src.Norm())
}

// NewStateVec implements BulkProcess.
func (g *GBM) NewStateVec(lanes int) StateVec { return newScalarVec(lanes) }

// StepVec implements BulkProcess: per lane, the same expression Step
// evaluates (same association, so the floating-point result is
// bit-identical), drawn from that lane's own source. The normals and
// the exps of up to rng.LaneChunk lanes are evaluated together
// (rng.NormScratch.NormLanes, vmath.Exp), with Norm's and math.Exp's bits.
func (g *GBM) StepVec(v StateVec, lanes []int, _ []int, src []*rng.Source) {
	sv := v.(*scalarVec)
	x := &sv.draw.eps
	for len(lanes) > 0 {
		n := sv.draw.NormLanes(x[:], lanes, src)
		for k, eps := range x[:n] {
			x[k] = g.Mu - g.Sigma*g.Sigma/2 + g.Sigma*eps
		}
		vmath.Exp(x[:n])
		for k, i := range lanes[:n] {
			sv.lane[i].V *= x[k]
		}
		lanes = lanes[n:]
	}
}

// SeriesWithRegimes generates a length-n price series from the GBM with
// occasional volatility regime shifts, giving the neural model richer
// structure to learn than plain GBM. Used only for training data.
func (g *GBM) SeriesWithRegimes(n int, src *rng.Source) []float64 {
	out := make([]float64, n)
	price := g.S0
	sigma := g.Sigma
	for i := 0; i < n; i++ {
		// A regime shift roughly every 250 steps rescales volatility.
		if src.Bernoulli(1.0 / 250) {
			sigma = g.Sigma * src.Uniform(0.5, 2.0)
		}
		price *= math.Exp(g.Mu - sigma*sigma/2 + sigma*src.Norm())
		out[i] = price
	}
	return out
}
