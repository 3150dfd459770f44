package core

import (
	"fmt"
	"math"
)

// Moments is the mergeable sufficient statistic of the g-MLSS variance
// every serving path reports: the delta-method (first-order Taylor)
// variance of Eq. 10's estimator, in place of §4.2's bootstrap.
//
// Each root path i contributes one vector x_i: its crossings
// A_l = Land[l] + Skip[l] and advancements B_l = Mu[l] + Skip[l] at every
// watched level l = First..M-1, then its Hits. Moments keeps the count,
// the mean of x and the packed upper triangle of the co-moment
// sum_i (x_i - mean)(x_i - mean)^T, updated and merged by the
// multivariate form of stats.Accumulator's Welford/Chan update — centred
// sums, which do not cancel the way raw sums of squares do.
//
// For a prefix target t the estimator is a smooth function of the means,
//
//	tau = Ā_First · prod_{First <= l < t} B̄_l / Ā_l,
//
// whose log-linearization is the per-root score
//
//	psi = sum_{First <= l < t} B_l/B̄_l - sum_{First < l < t} A_l/Ā_l,
//
// so Var(tau) ≈ tau² · s²(psi) / n: one O(m²) quadratic form per
// evaluation, with no resampling stream and no schedule.
//
// Moments is plain data so snapshots carry it with encoding/gob. The
// exported fields are its state; build and update it only through
// NewMoments, Add, Merge and Reset.
type Moments struct {
	N     int64
	M     int       // the plan's boundary count
	First int       // first watched level, initLevel + 1
	Mean  []float64 // mean of x, len Dim()
	Co    []float64 // packed upper triangle of the co-moment sum, row-major
}

// momentStackDim is the vector length Add, Merge and Variance keep on
// the stack; longer vectors (dense threshold ladders) spill to the heap.
const momentStackDim = 32

func scratch(stack *[momentStackDim]float64, d int) []float64 {
	if d <= len(stack) {
		return stack[:d]
	}
	return make([]float64, d)
}

// NewMoments returns empty moments for an m-boundary plan whose roots
// start in level initLevel.
func NewMoments(m, initLevel int) Moments {
	var s Moments
	s.Reset(m, initLevel)
	return s
}

// Reset empties s and reshapes it for an m-boundary plan whose roots
// start in level initLevel, reusing its buffers when they are large
// enough.
func (s *Moments) Reset(m, initLevel int) {
	s.N, s.M, s.First = 0, m, initLevel+1
	d := s.dim()
	s.Mean = resize(s.Mean, d)
	s.Co = resize(s.Co, d*(d+1)/2)
}

func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// dim is the length of one root's vector: A and B at each watched level,
// then Hits.
func (s *Moments) dim() int { return momentsDim(s.M, s.First-1) }

// momentsDim is Moments.dim for an m-boundary plan whose roots start in
// level initLevel.
func momentsDim(m, initLevel int) int { return 2*(m-initLevel-1) + 1 }

// Add folds one root path's counters into s. It is bit-for-bit Merge of
// a one-root Moments holding u.
func (s *Moments) Add(u Counters) {
	var stack [momentStackDim]float64
	delta := scratch(&stack, s.dim())
	k := s.M - s.First
	for j := range k {
		l := s.First + j
		delta[j] = u.Land[l] + u.Skip[l] - s.Mean[j]
		delta[k+j] = u.Mu[l] + u.Skip[l] - s.Mean[k+j]
	}
	delta[2*k] = u.Hits - s.Mean[2*k]
	s.update(delta, 1)
}

// Merge folds o into s, as Add would each of o's roots up to rounding.
// Both must describe the same plan shape.
func (s *Moments) Merge(o *Moments) {
	if s.M != o.M || s.First != o.First {
		panic(fmt.Sprintf("core: merging moments of shape (m %d, first %d) into (m %d, first %d)", o.M, o.First, s.M, s.First))
	}
	if s.N == 0 {
		s.N = o.N
		copy(s.Mean, o.Mean)
		copy(s.Co, o.Co)
		return
	}
	if o.N == 0 {
		return
	}
	var stack [momentStackDim]float64
	delta := scratch(&stack, s.dim())
	for j := range delta {
		delta[j] = o.Mean[j] - s.Mean[j]
	}
	for i := range s.Co {
		s.Co[i] += o.Co[i]
	}
	s.update(delta, o.N)
}

// update applies Chan et al.'s pairwise step (stats.Accumulator.Merge's,
// per component pair) for a block of nb observations whose mean sits
// delta away from s's: Co += delta delta^T · na·nb/n, Mean += delta · nb/n.
func (s *Moments) update(delta []float64, nb int64) {
	n := s.N + nb
	w := float64(s.N) * float64(nb) / float64(n)
	step := float64(nb) / float64(n)
	p := 0
	for j, dj := range delta {
		djw := dj * w
		for _, dk := range delta[j:] {
			s.Co[p] += djw * dk
			p++
		}
	}
	for j, dj := range delta {
		s.Mean[j] += dj * step
	}
	s.N = n
}

// Variance is the delta-method variance of the prefix estimator at
// boundary target (EstimatePrefixFromCounters; target == M is Eq. 10's
// full estimate). With fewer than two roots it is +Inf, so quality-based
// stop rules keep sampling; a target at or below the start level, or a
// zero mean anywhere in the estimate, makes the estimate 0 and its
// variance 0.
func (s *Moments) Variance(target int) float64 {
	if s.N < 2 {
		return math.Inf(1)
	}
	if target < s.First || target > s.M {
		return 0
	}
	// tau, and psi's coefficients c over the root vector.
	var stack [momentStackDim]float64
	d, k := s.dim(), s.M-s.First
	c := scratch(&stack, d)
	clear(c)
	var tau float64
	switch {
	case s.First == s.M: // no watched boundary: tau = H̄
		tau, c[2*k] = s.Mean[2*k], 1/s.Mean[2*k]
	case target == s.First: // tau = Ā_First
		tau, c[0] = s.Mean[0], 1/s.Mean[0]
	default:
		tau = s.Mean[0]
		for j := range target - s.First {
			a, b := s.Mean[j], s.Mean[k+j]
			if a == 0 || b == 0 {
				return 0
			}
			tau *= b / a
			c[k+j] = 1 / b
			if j > 0 {
				c[j] = -1 / a
			}
		}
	}
	if tau == 0 {
		return 0
	}
	// q = c^T Co c over the packed upper triangle.
	q, p := 0.0, 0
	for j, cj := range c {
		for l := j; l < d; l++ {
			if cj != 0 && c[l] != 0 {
				w := cj * c[l] * s.Co[p]
				if l > j {
					w *= 2
				}
				q += w
			}
			p++
		}
	}
	n := float64(s.N)
	if v := tau * tau * q / (n * (n - 1)); v > 0 {
		return v
	}
	return 0
}
