package core

import (
	"math"
	"testing"

	"durability/internal/rng"
	"durability/internal/stochastic"
)

// TestCutExact checks the kernels' boundary test in observation space:
// for every reading z, z < cut(beta, b) exactly when the paper's
// f = clamp(z/beta, 0, 1) is below b. Betas span 1e-300 to 1e300,
// boundaries are random and the plan's top boundary 1, and readings sit
// on the cut and one and two ulps either side of it, on b*beta, and at
// the float line's specials.
func TestCutExact(t *testing.T) {
	src := rng.New(23)
	betas := []float64{1e-300, 1e300, 1, 26, 30, 0.1, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64}
	for range 300 {
		betas = append(betas, math.Pow(10, src.Uniform(-300, 300)))
	}
	bounds := []float64{1, 0.5, 1.0 / 3, 4.0 / 9, math.Nextafter(1, 0), math.SmallestNonzeroFloat64}
	for range 40 {
		bounds = append(bounds, src.Float64Open())
	}
	checked := 0
	for _, beta := range betas {
		f := ThresholdValue(stochastic.ScalarValue, beta)
		o := observation{z: stochastic.ScalarValue, beta: beta}
		for _, b := range bounds {
			cut := o.cut(b)
			zs := []float64{
				cut, b * beta, -b * beta, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
				-1, -math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, beta, src.Uniform(-2, 2) * beta,
			}
			for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
				z := cut
				for range 2 {
					z = math.Nextafter(z, dir)
					zs = append(zs, z)
				}
			}
			for _, z := range zs {
				want := f(&stochastic.Scalar{V: z}) < b
				if got := z < cut; got != want {
					t.Fatalf("beta %v, boundary %v: z %v < cut %v is %v, f(z) = %v < b is %v",
						beta, b, z, cut, got, f(&stochastic.Scalar{V: z}), want)
				}
				if got, want := z >= cut, f(&stochastic.Scalar{V: z}) >= b; got != want {
					t.Fatalf("beta %v, boundary %v: z %v >= cut %v is %v, f(z) >= b is %v", beta, b, z, cut, got, want)
				}
				checked++
			}
			if o.f(cut) < b || (cut > 0 && !math.IsInf(cut, 1) && o.f(math.Nextafter(cut, 0)) >= b) {
				t.Fatalf("beta %v, boundary %v: cut %v is not the first reading reaching b", beta, b, cut)
			}
		}
	}
	if checked < 100_000 {
		t.Fatalf("only %d readings checked", checked)
	}
	// The custom form's reading is f itself, so its cut is the boundary.
	custom := Query{Value: func(stochastic.State) float64 { return 0 }, Horizon: 1}.observation()
	for _, b := range bounds {
		if got := custom.cut(b); got != b {
			t.Fatalf("custom form cut of %v = %v", b, got)
		}
	}
}

// TestQueryForms checks Validate on the two forms and that ValueOf
// evaluates either one.
func TestQueryForms(t *testing.T) {
	z := stochastic.ScalarValue
	s := &stochastic.Scalar{V: 5}
	for _, tc := range []struct {
		q    Query
		ok   bool
		want float64
	}{
		{Query{Z: z, Beta: 10, Horizon: 1}, true, 0.5},
		{Query{Value: ThresholdValue(z, 10), Horizon: 1}, true, 0.5},
		{Query{Value: func(stochastic.State) float64 { return 2 }, Horizon: 1}, true, 2},
		{Query{Z: z, Beta: 10, Value: ThresholdValue(z, 10), Horizon: 1}, false, 0},
		{Query{Z: z, Beta: 0, Horizon: 1}, false, 0},
		{Query{Z: z, Beta: -1, Horizon: 1}, false, 0},
		{Query{Z: z, Beta: math.NaN(), Horizon: 1}, false, 0},
		{Query{Z: z, Beta: math.Inf(1), Horizon: 1}, false, 0},
		{Query{Beta: 10, Horizon: 1}, false, 0},
		{Query{Z: z, Beta: 10}, false, 0},
	} {
		err := tc.q.Validate()
		if (err == nil) != tc.ok {
			t.Fatalf("%+v: Validate() = %v, want ok %v", tc.q, err, tc.ok)
		}
		if tc.ok {
			if got := tc.q.ValueOf(s); got != tc.want {
				t.Fatalf("%+v: ValueOf = %v, want %v", tc.q, got, tc.want)
			}
		}
	}
}
