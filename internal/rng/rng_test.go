package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided %d times", same)
	}
}

func TestReseedResetsState(t *testing.T) {
	s := New(99)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(99)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed = %d, want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want 0.5 +/- 0.005", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(6)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want ~%v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(8)
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(9)
	for _, rate := range []float64{0.5, 1, 2, 4.5} {
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := s.Exp(rate)
			if v < 0 {
				t.Fatalf("Exp(%v) returned negative %v", rate, v)
			}
			sum += v
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want) > 0.03*want {
			t.Errorf("Exp(%v) mean = %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPoissonMoments(t *testing.T) {
	s := New(10)
	for _, mean := range []float64{0.5, 0.8, 5, 40, 100} {
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.02 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean) > 0.10*mean+0.05 {
			t.Errorf("Poisson(%v) variance = %v, want ~%v", mean, variance, mean)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	s := New(11)
	if got := s.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", got)
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(12)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) hit rate = %v", rate)
	}
}

func TestCategoricalWeights(t *testing.T) {
	s := New(13)
	weights := []float64{1, 2, 7}
	const n = 100000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[s.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("category %d drawn %d times, want ~%v", i, counts[i], want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {1, -1}}
	for _, weights := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) did not panic", weights)
				}
			}()
			New(1).Categorical(weights)
		}()
	}
}

func TestUniformRange(t *testing.T) {
	s := New(14)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform(5,10) = %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(15)
	p := make([]int, 20)
	s.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(16)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child collided %d times", same)
	}
}

// Property: Float64 output is always a valid probability-like value for any
// seed, exercised via testing/quick.
func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 64; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds give identical streams regardless of seed value.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 32; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Norm()
	}
	_ = sink
}

func BenchmarkPoissonSmallMean(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Poisson(0.8)
	}
	_ = sink
}

// A Source restored from its marshalled form must resume the sequence at
// exactly the draw where the original stood — including the cached second
// Box-Muller variate, which an odd number of Norm calls leaves pending.
func TestSourceMarshalRoundTrip(t *testing.T) {
	s := NewStream(42, 17)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Norm() // leave a cached variate pending

	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r Source
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if g, w := r.Norm(), s.Norm(); g != w {
			t.Fatalf("restored Norm draw %d = %v, original %v", i, g, w)
		}
		if g, w := r.Uint64(), s.Uint64(); g != w {
			t.Fatalf("restored Uint64 draw %d = %d, original %d", i, g, w)
		}
	}
}

func TestSourceUnmarshalRejectsBadLength(t *testing.T) {
	var r Source
	if err := r.UnmarshalBinary(make([]byte, 7)); err == nil {
		t.Fatal("UnmarshalBinary accepted a truncated blob")
	}
}

// mul64Portable is the hand-rolled 128-bit multiply Intn used before it
// switched to the math/bits.Mul64 intrinsic, kept as an oracle: equal
// products mean equal Intn outputs.
func mul64Portable(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

func TestMul64MatchesPortable(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64 - 1, math.MaxUint64}
	for k := uint(0); k < 64; k++ {
		edges = append(edges, 1<<k, 1<<k-1)
	}
	check := func(a, b uint64) {
		t.Helper()
		gotHi, gotLo := bits.Mul64(a, b)
		wantHi, wantLo := mul64Portable(a, b)
		if gotHi != wantHi || gotLo != wantLo {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), portable (%#x, %#x)", a, b, gotHi, gotLo, wantHi, wantLo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	src := New(7)
	for i := 0; i < 100_000; i++ {
		check(src.Uint64(), src.Uint64())
	}
}

// Norm's Sincos must return the very bits of separate Sin and Cos calls:
// every golden in the repository was recorded with the pair.
func TestNormMatchesSinCosPair(t *testing.T) {
	s, ref := New(17), New(17)
	for i := 0; i < 1_000_000; i++ {
		u1, u2 := ref.Float64Open(), ref.Float64()
		r, theta := math.Sqrt(-2*math.Log(u1)), 2*math.Pi*u2
		if got, want := s.Norm(), r*math.Cos(theta); got != want {
			t.Fatalf("draw %d: cos variate %v, want %v", 2*i, got, want)
		}
		if got, want := s.Norm(), r*math.Sin(theta); got != want {
			t.Fatalf("draw %d: sin variate %v, want %v", 2*i+1, got, want)
		}
	}
}
