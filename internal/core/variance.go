package core

import "math"

// twoLevelVariance is the closed-form variance of the g-MLSS estimator
// for the simple-but-nontrivial case the paper analyses in §4.2: two
// levels with level skipping (Figure 3). With
//
//	p01 = P(land in L1), p02 = P(jump straight past beta_2),
//	p12 = P(cross beta_2 | landed in L1),
//
// Eq. 11 reads
//
//	Var(tau_hat) = p12^2 * p01(1-p01)/N0
//	             + p01 * Var(N2^<1>)/(N0 r^2)
//	             + p02(1-p02)/N0
//
// where N2^<1> is the number of target hits among one split state's r
// offspring. All quantities are estimated from the run's own counters:
// p01 = Land[1]/N0, p02 = Skip[1]/N0, p12 = Mu[1]/Land[1], and
// Var(N2^<1>) from the per-split first and second moments: Mu[1] and
// fracSq, the sum of squared per-split crossing fractions.
//
// It returns (variance, true) only when the plan really has m == 2 and at
// least two splits happened; otherwise the caller falls back to the
// moment variance (Moments), which it equals up to divisors when no root
// skips level 1: Eq. 11 is the moment form plus 2·p01·p12·p02/N0, the
// landing/skip covariance the closed form leaves out.
func twoLevelVariance(agg Counters, fracSq float64, n int64, m, initLevel int) (float64, bool) {
	if m != 2 || initLevel != 0 || n == 0 {
		return 0, false
	}
	n0 := float64(n)
	h1 := agg.Land[1]
	if h1 < 2 {
		return 0, false
	}
	p01 := h1 / n0
	p02 := agg.Skip[1] / n0
	p12 := agg.Mu[1] / h1
	// Var over splits of the offspring hit count N2^<1> = r * frac:
	// Var(r*frac) = r^2 * (E[frac^2] - E[frac]^2), with the unbiased
	// (h1-1) divisor.
	meanFrac := agg.Mu[1] / h1
	varFrac := (fracSq - h1*meanFrac*meanFrac) / (h1 - 1)
	if varFrac < 0 {
		varFrac = 0
	}
	// Var(N2^<1>)/r^2 = varFrac, so the middle term is p01 * varFrac / N0.
	v := p12*p12*p01*(1-p01)/n0 +
		p01*varFrac/n0 +
		p02*(1-p02)/n0
	if math.IsNaN(v) || v < 0 {
		return 0, false
	}
	return v, true
}
