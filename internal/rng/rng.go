// Package rng provides the deterministic pseudo-random substrate used by
// every sampler in this repository.
//
// The samplers in internal/mc and internal/core must be reproducible (the
// experiment harness re-runs them hundreds of times and compares
// distributions) and parallelisable (root paths are simulated on a worker
// pool). Both needs are served by xoshiro256**, a small, fast generator
// with an easy way to derive statistically independent streams: we seed
// each stream through SplitMix64, following the generator authors'
// recommendation.
//
// The package also implements the non-uniform distributions the paper's
// simulation models draw from: exponential (queue service times), Poisson
// (arrival counts and jump counts), normal (AR noise, MDN sampling),
// uniform (jump sizes), and categorical (Markov transitions, mixture
// component choice).
package rng

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"durability/internal/vmath"
)

// Gen is one xoshiro256** state as a value: Next returns the advanced
// state and the output. A hot loop holds a Gen in locals, where the
// compiler keeps its four words in registers, and writes it back once
// (Source.Gen, Source.SetGen); Source's own draws step through it, so the
// generator step exists once.
type Gen struct {
	s0, s1, s2, s3 uint64
}

// Next returns the state after one xoshiro256** step and that step's
// 64 uniformly random bits. Its form is tuned for the compiler: as
// written it stays under the inlining budget, with the Source draws
// built on it, and leaves no word to spill in NormLanes' lane loop.
func (g Gen) Next() (next Gen, x uint64) {
	x = bits.RotateLeft64(g.s1*5, 7) * 9
	s2, s3 := g.s2^g.s0, g.s3^g.s1
	return Gen{g.s0 ^ s3, g.s1 ^ s2, s2 ^ g.s1<<17, bits.RotateLeft64(s3, 45)}, x
}

// Float64 returns the advanced state and a uniform value in [0, 1) with
// 53 bits of precision.
func (g Gen) Float64() (Gen, float64) {
	g, x := g.Next()
	return g, float64(x>>11) / (1 << 53)
}

// Float64Open returns the advanced state and a uniform value in (0, 1),
// never exactly zero: Float64's draws with the zeros skipped.
func (g Gen) Float64Open() (Gen, float64) {
	var x uint64
	for x>>11 == 0 {
		g, x = g.Next()
	}
	return g, float64(x>>11) / (1 << 53)
}

// Source is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; derive one Source per goroutine with NewStream or Split.
type Source struct {
	g Gen
	// cached second normal variate from the Box-Muller transform
	normCached bool
	normValue  float64
}

// Gen returns the generator's state, leaving the Box-Muller cache aside.
func (s *Source) Gen() Gen { return s.g }

// SetGen sets the generator's state to g and keeps the Box-Muller cache:
// Gen then SetGen of the advanced state continues s's sequence as s's own
// draws would have.
func (s *Source) SetGen(g Gen) { s.g = g }

// splitmix64 advances a 64-bit state and returns a well-mixed output. It is
// used only for seeding, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Two Sources built from
// the same seed produce identical sequences.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// NewStream returns a Source for the stream-th independent substream of the
// given seed. Streams with different indices are, for practical purposes,
// statistically independent; this is how the parallel samplers hand one
// generator to each worker.
func NewStream(seed, stream uint64) *Source {
	var s Source
	s.SeedStream(seed, stream)
	return &s
}

// SeedStream re-seeds s in place to the stream-th substream of seed,
// leaving it in exactly the state NewStream(seed, stream) returns —
// cached Box-Muller variate cleared included. The vectorized simulation
// kernel keeps one pooled Source per lane and re-seeds it per root, so
// the per-root substream contract holds without a per-root allocation.
// The substream analyzer (cmd/durlint) applies the same rule here as at
// NewStream call sites: keep the seed argument pristine and put identity
// in the stream index.
func (s *Source) SeedStream(seed, stream uint64) {
	mix := seed
	_ = splitmix64(&mix)
	mix ^= 0x6a09e667f3bcc909 * (stream + 1)
	s.Reseed(mix)
}

// Reseed resets the Source to the state derived from seed, discarding any
// cached variates.
func (s *Source) Reseed(seed uint64) {
	state := seed
	s.g.s0 = splitmix64(&state)
	s.g.s1 = splitmix64(&state)
	s.g.s2 = splitmix64(&state)
	s.g.s3 = splitmix64(&state)
	s.normCached = false
	s.normValue = 0
}

// Split derives a fresh, independent Source from the current state without
// disturbing the parent's future output beyond one draw.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// sourceMarshalLen is the wire size of a marshalled Source: four 64-bit
// state words, the Box-Muller cache flag and the cached variate.
const sourceMarshalLen = 4*8 + 1 + 8

// MarshalBinary implements encoding.BinaryMarshaler: the full generator
// state, cached Box-Muller variate included, so a restored Source resumes
// the sequence at exactly the draw where the original stood. Snapshots of
// serving state (internal/persist) rely on this for the bit-for-bit
// determinism guarantee across restarts; gob picks the interface up
// automatically.
func (s *Source) MarshalBinary() ([]byte, error) {
	buf := make([]byte, sourceMarshalLen)
	binary.LittleEndian.PutUint64(buf[0:], s.g.s0)
	binary.LittleEndian.PutUint64(buf[8:], s.g.s1)
	binary.LittleEndian.PutUint64(buf[16:], s.g.s2)
	binary.LittleEndian.PutUint64(buf[24:], s.g.s3)
	if s.normCached {
		buf[32] = 1
	}
	binary.LittleEndian.PutUint64(buf[33:], math.Float64bits(s.normValue))
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, restoring the
// exact state captured by MarshalBinary.
func (s *Source) UnmarshalBinary(data []byte) error {
	if len(data) != sourceMarshalLen {
		return fmt.Errorf("rng: marshalled Source is %d bytes, want %d", len(data), sourceMarshalLen)
	}
	s.g.s0 = binary.LittleEndian.Uint64(data[0:])
	s.g.s1 = binary.LittleEndian.Uint64(data[8:])
	s.g.s2 = binary.LittleEndian.Uint64(data[16:])
	s.g.s3 = binary.LittleEndian.Uint64(data[24:])
	s.normCached = data[32] == 1
	s.normValue = math.Float64frombits(binary.LittleEndian.Uint64(data[33:]))
	return nil
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() (x uint64) {
	s.g, x = s.g.Next()
	return x
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
// It and Float64Open repeat Gen's conversions over Uint64 rather than
// call Gen's draws of the same name, which would put them over the
// compiler's inlining budget.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly zero. Inverse
// transforms (exponential sampling) need an open interval to avoid log(0).
func (s *Source) Float64Open() (v float64) {
	for v == 0 {
		v = s.Float64()
	}
	return v
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		x := s.Uint64()
		hi, lo := bits.Mul64(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal variate via the Box-Muller transform. One
// transform produces two variates; the second is cached for the next call.
func (s *Source) Norm() float64 {
	if s.normCached {
		s.normCached = false
		return s.normValue
	}
	u1 := s.Float64Open()
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	// Sincos shares Sin's and Cos's argument reduction and polynomials,
	// so it returns the bits of the two calls (TestNormMatchesSinCosPair)
	// at about half their cost.
	sin, cos := math.Sincos(2 * math.Pi * u2)
	s.normValue = r * sin
	s.normCached = true
	return r * cos
}

// LaneChunk is the most lanes one NormLanes call fills: the width of its
// scratch, and the lane kernel's frontier.
const LaneChunk = 64

// NormScratch is NormLanes' working space: the uniforms, then in place
// the variates, and the dst index of each transform. Lane kernels keep
// one in their lane state, so a call does not clear a fresh 1 KB of
// stack; NormLanes writes every entry it later reads.
type NormScratch struct {
	u1, u2 [LaneChunk]float64
	fresh  [LaneChunk]uint8
}

// NormLanes sets dst[k] to src[lanes[k]].Norm() for the first
// n = min(len(lanes), len(dst), LaneChunk) lanes and returns n. Each
// source advances exactly as its Norm call would: a cached second
// variate is returned first; otherwise Float64Open then Float64 feed
// one Box–Muller transform, whose sine half is cached. The transforms
// of every lane that needs one run together through vmath.BoxMuller,
// which returns Norm's bits, so dst and every source end bit for bit
// where per-lane Norm calls leave them. Lanes must be distinct.
func (w *NormScratch) NormLanes(dst []float64, lanes []int, src []*Source) int {
	n := min(len(lanes), len(dst), LaneChunk)
	u1, u2, fresh := &w.u1, &w.u2, &w.fresh
	m := 0
	for k, l := range lanes[:n] {
		s := src[l]
		if s.normCached {
			s.normCached = false
			dst[k] = s.normValue
			continue
		}
		u1[m] = s.Float64Open()
		u2[m] = s.Float64()
		fresh[m] = uint8(k)
		m++
	}
	vmath.BoxMuller(u1[:m], u2[:m], u1[:m], u2[:m])
	for j, k := range fresh[:m] {
		s := src[lanes[k]]
		s.normValue, s.normCached = u2[j], true
		dst[k] = u1[j]
	}
	return n
}

// NormMS returns a normal variate with the given mean and standard
// deviation.
func (s *Source) NormMS(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// Exp returns an exponential variate with the given rate (mean 1/rate) by
// inverse transform. It panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	return -math.Log(s.Float64Open()) / rate
}

// PoissonProductMax is the mean below which Poisson takes Knuth's
// product method.
const PoissonProductMax = 30

// Poisson returns a Poisson-distributed count with the given mean. For
// small means it uses Knuth's product method; for large means it switches
// to the normal approximation with continuity correction, which is accurate
// to well under the noise floor of every experiment in this repository.
func (s *Source) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < PoissonProductMax:
		return s.PoissonProduct(math.Exp(-mean))
	default:
		v := math.Round(s.NormMS(mean, math.Sqrt(mean)))
		if v < 0 {
			return 0
		}
		return int(v)
	}
}

// PoissonProduct is Poisson's product method for a mean in
// (0, PoissonProductMax) given limit = exp(-mean): it multiplies uniforms
// until the product falls to limit. A caller drawing many counts at one
// mean computes the exp once and gets Poisson's draws bit for bit. The
// loop draws on the generator words held in locals.
func (s *Source) PoissonProduct(limit float64) int {
	g, k, p := s.g, 0, 1.0
	for {
		var u float64
		g, u = g.Float64()
		p *= u
		if p <= limit {
			s.g = g
			return k
		}
		k++
	}
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Categorical draws an index proportionally to the given non-negative
// weights. It panics if the weights are empty or sum to a non-positive
// value.
func (s *Source) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical called with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Categorical called with a negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical weights sum to zero")
	}
	target := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm fills dst with a uniform random permutation of [0, len(dst)).
func (s *Source) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
