package stochastic

import (
	"math"

	"durability/internal/rng"
)

// CompoundPoisson is the risk process of §6 model (2):
//
//	U(t) = u + c*t - S(t)
//
// where S(t) is a compound Poisson process with jump density ClaimRate and
// uniform jump sizes on [ClaimLo, ClaimHi). U models the net position of
// an insurance policy: u is the initial surplus, c the per-step premium
// income and S the aggregate claims paid out.
//
// The impulse fields reproduce the "Volatile CPP" process of §6.2: after
// time ImpulseAfter, each step adds ImpulseSize to U with probability
// ImpulseProb, producing level-skipping jumps.
type CompoundPoisson struct {
	U0        float64 // initial surplus u
	Premium   float64 // per-step premium income c
	ClaimRate float64 // Poisson jump density lambda
	ClaimLo   float64 // uniform claim size lower bound
	ClaimHi   float64 // uniform claim size upper bound

	ImpulseProb  float64 // per-step probability of an impulse jump (0 disables)
	ImpulseSize  float64 // value added to U by an impulse
	ImpulseAfter int     // first time step at which impulses may fire
}

// NewCompoundPoisson returns the paper's CPP model with the given surplus
// and premium; claims arrive at rate lambda with Uni(lo, hi) sizes.
func NewCompoundPoisson(u, c, lambda, lo, hi float64) *CompoundPoisson {
	return &CompoundPoisson{U0: u, Premium: c, ClaimRate: lambda, ClaimLo: lo, ClaimHi: hi}
}

// Name implements Process.
func (p *CompoundPoisson) Name() string {
	if p.ImpulseProb > 0 {
		return "volatile-cpp"
	}
	return "cpp"
}

// Initial implements Process.
func (p *CompoundPoisson) Initial() State { return &Scalar{V: p.U0} }

// Step implements Process: one unit of time adds the premium and subtracts
// a Poisson-distributed number of uniform claims.
func (p *CompoundPoisson) Step(s State, t int, src *rng.Source) {
	sc := s.(*Scalar)
	sc.V += p.Premium
	claims := src.Poisson(p.ClaimRate)
	for i := 0; i < claims; i++ {
		sc.V -= src.Uniform(p.ClaimLo, p.ClaimHi)
	}
	if p.ImpulseProb > 0 && t >= p.ImpulseAfter && src.Bernoulli(p.ImpulseProb) {
		sc.V += p.ImpulseSize
	}
}

// NewStateVec implements BulkProcess.
func (p *CompoundPoisson) NewStateVec(lanes int) StateVec { return newScalarVec(lanes) }

// StepVec implements BulkProcess: Step's draw sequence per lane —
// Poisson claim count, then one uniform per claim, then the impulse
// Bernoulli — each lane from its own source. The claim count's
// exp(-ClaimRate) is computed once per call.
func (p *CompoundPoisson) StepVec(v StateVec, lanes []int, t []int, src []*rng.Source) {
	sv := v.(*scalarVec)
	product := p.ClaimRate > 0 && p.ClaimRate < rng.PoissonProductMax
	limit := math.Exp(-p.ClaimRate)
	for _, i := range lanes {
		sc := &sv.lane[i]
		sc.V += p.Premium
		var claims int
		if product {
			claims = src[i].PoissonProduct(limit)
		} else {
			claims = src[i].Poisson(p.ClaimRate)
		}
		for c := 0; c < claims; c++ {
			sc.V -= src[i].Uniform(p.ClaimLo, p.ClaimHi)
		}
		if p.ImpulseProb > 0 && t[i] >= p.ImpulseAfter && src[i].Bernoulli(p.ImpulseProb) {
			sc.V += p.ImpulseSize
		}
	}
}

// MeanDrift returns the expected per-step change of U, a calibration
// helper: premium minus expected aggregate claims.
func (p *CompoundPoisson) MeanDrift() float64 {
	return p.Premium - p.ClaimRate*(p.ClaimLo+p.ClaimHi)/2
}
