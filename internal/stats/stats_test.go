package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Fatal("zero accumulator should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	// population variance of that classic dataset is 4
	if math.Abs(a.PopulationVariance()-4) > 1e-12 {
		t.Fatalf("population variance = %v, want 4", a.PopulationVariance())
	}
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("sample variance = %v, want 32/7", a.Variance())
	}
}

func TestAccumulatorSingleValue(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 {
		t.Fatalf("variance of one value = %v, want 0", a.Variance())
	}
	if a.MeanStdErr() != 0 {
		t.Fatalf("stderr of one value = %v, want 0", a.MeanStdErr())
	}
}

func TestAccumulatorAddN(t *testing.T) {
	var a, b Accumulator
	a.AddN(1, 3)
	a.AddN(0, 7)
	for _, v := range []float64{1, 1, 1, 0, 0, 0, 0, 0, 0, 0} {
		b.Add(v)
	}
	if math.Abs(a.Mean()-b.Mean()) > 1e-12 || math.Abs(a.Variance()-b.Variance()) > 1e-12 {
		t.Fatal("AddN disagrees with repeated Add")
	}
}

func TestAccumulatorMerge(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -3, 2.5}
	var whole, left, right Accumulator
	for i, v := range data {
		whole.Add(v)
		if i < 5 {
			left.Add(v)
		} else {
			right.Add(v)
		}
	}
	left.Merge(right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), whole.N())
	}
	if math.Abs(left.Mean()-whole.Mean()) > 1e-12 {
		t.Fatalf("merged mean = %v, want %v", left.Mean(), whole.Mean())
	}
	if math.Abs(left.Variance()-whole.Variance()) > 1e-9 {
		t.Fatalf("merged variance = %v, want %v", left.Variance(), whole.Variance())
	}
}

func TestAccumulatorMergeEmpty(t *testing.T) {
	var a, empty Accumulator
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(empty)
	if a != before {
		t.Fatal("merging an empty accumulator changed state")
	}
	empty.Merge(a)
	if empty.Mean() != a.Mean() || empty.N() != a.N() {
		t.Fatal("merging into empty accumulator lost data")
	}
}

// Property (testing/quick): merging two accumulators is equivalent to
// accumulating the concatenated stream.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, whole Accumulator
		for _, v := range xs {
			a.Add(v)
			whole.Add(v)
		}
		for _, v := range ys {
			b.Add(v)
			whole.Add(v)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			return false
		}
		scale := 1 + math.Abs(whole.Mean())
		if math.Abs(a.Mean()-whole.Mean()) > 1e-8*scale {
			return false
		}
		vScale := 1 + whole.Variance()
		return math.Abs(a.Variance()-whole.Variance()) <= 1e-6*vScale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZCritical(t *testing.T) {
	if z := ZCritical(0.95); math.Abs(z-1.95996) > 1e-3 {
		t.Fatalf("z(0.95) = %v, want ~1.96", z)
	}
	if z := ZCritical(0.99); math.Abs(z-2.57583) > 1e-3 {
		t.Fatalf("z(0.99) = %v, want ~2.576", z)
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := NormQuantile(p)
		back := NormCDF(x)
		if math.Abs(back-p) > 1e-6 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
}

func TestNormQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.01, 0.2, 0.35} {
		if math.Abs(NormQuantile(p)+NormQuantile(1-p)) > 1e-8 {
			t.Errorf("quantile not symmetric at p=%v", p)
		}
	}
	if math.Abs(NormQuantile(0.5)) > 1e-9 {
		t.Error("median of standard normal should be 0")
	}
}

func TestNormQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormQuantile(%v) did not panic", p)
				}
			}()
			NormQuantile(p)
		}()
	}
}

func TestMeanCI(t *testing.T) {
	iv := MeanCI(0.5, 0.0001, 0.95)
	if !iv.Contains(0.5) {
		t.Fatal("CI must contain the point estimate")
	}
	wantHalf := 1.96 * 0.01
	if math.Abs(iv.Width()-2*wantHalf) > 1e-3 {
		t.Fatalf("CI width = %v, want ~%v", iv.Width(), 2*wantHalf)
	}
}

func TestRelativeError(t *testing.T) {
	if re := RelativeError(0.1, 0.0001); math.Abs(re-0.1) > 1e-12 {
		t.Fatalf("RE = %v, want 0.1", re)
	}
	if !math.IsInf(RelativeError(0, 0.5), 1) {
		t.Fatal("RE of zero estimate should be +Inf")
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if q := Quantile(data, 0.5); math.Abs(q-5) > 1e-12 {
		t.Fatalf("median = %v, want 5", q)
	}
	if q := Quantile(data, 0); q != 1 {
		t.Fatalf("min = %v, want 1", q)
	}
	if q := Quantile(data, 1); q != 9 {
		t.Fatalf("max = %v, want 9", q)
	}
	single := []float64{42}
	if q := Quantile(single, 0.7); q != 42 {
		t.Fatalf("quantile of singleton = %v", q)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	data := []float64{0, 10}
	if q := Quantile(data, 0.25); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("q(0.25) = %v, want 2.5", q)
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	if m := Mean(data); math.Abs(m-2.5) > 1e-12 {
		t.Fatalf("Mean = %v", m)
	}
	if v := Variance(data); math.Abs(v-5.0/3.0) > 1e-12 {
		t.Fatalf("Variance = %v", v)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("helpers on empty input should return 0")
	}
	if s := StdDev(data); math.Abs(s-math.Sqrt(5.0/3.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", s)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0, 1.9, 2, 5, 9.99, -1, 10, 11} {
		h.Add(v)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Clamped() != 3 {
		t.Fatalf("clamped = %d, want 3", h.Clamped())
	}
	if h.Counts[0] != 3 { // 0, 1.9, -1(clamped)
		t.Fatalf("bucket0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 3 { // 9.99, 10(clamped), 11(clamped)
		t.Fatalf("bucket4 = %d, want 3", h.Counts[4])
	}
	if c := h.BucketCenter(0); math.Abs(c-1) > 1e-12 {
		t.Fatalf("bucket center = %v, want 1", c)
	}
}

func TestHistogramPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewHistogram with 0 buckets did not panic")
			}
		}()
		NewHistogram(0, 1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewHistogram with empty range did not panic")
			}
		}()
		NewHistogram(1, 1, 4)
	}()
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Lo: 0.1, Hi: 0.2}
	if iv.String() == "" {
		t.Fatal("empty interval string")
	}
	if iv.Width() != 0.1 {
		t.Fatalf("width = %v", iv.Width())
	}
}
