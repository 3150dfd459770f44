package vmath

import (
	"math"
	"math/bits"
	"testing"
)

// bothPaths runs f on the vector path (where the CPU has it) and on the
// scalar loops.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("vector", func(t *testing.T) {
		if !Vector() {
			t.Skip("no AVX2/FMA on this CPU")
		}
		defer ForceScalar(false)()
		f(t)
	})
	t.Run("scalar", func(t *testing.T) {
		defer ForceScalar(true)()
		f(t)
	})
}

// gen is a splitmix64 stream: the tests' inputs must not come from the
// package under test's callers (internal/rng uses this package).
type gen uint64

func (g *gen) next() uint64 {
	*g += 0x9e3779b97f4a7c15
	z := uint64(*g)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit is a uniform in [0, 1) on rng.Source.Float64's 2^-53 grid.
func (g *gen) unit() float64 { return float64(g.next()>>11) / (1 << 53) }

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// expEdges are exp's range edges, the scalar path's special cases and
// inputs whose x*log2(e) is a rounding tie.
func expEdges() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 0), math.Nextafter(7.09782712893384e+02, 1000),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		-745.1332191019411, -745.1332191019412, -1e300, 1e300,
	}
	for _, c := range []float64{-708.75, -708.5, -708.39, -708, -707.5, 708, 708.5, 709, 709.25, 709.5, 709.75} {
		x := c
		for range 8 {
			xs = append(xs, x, -x)
			x = math.Nextafter(x, math.Inf(1))
		}
		x = c
		for range 8 {
			x = math.Nextafter(x, math.Inf(-1))
			xs = append(xs, x)
		}
	}
	for k := -2046; k <= 2046; k++ { // ties of round(x*log2e)
		xs = append(xs, float64(k)/2*math.Ln2, math.Nextafter(float64(k)/2*math.Ln2, 0))
	}
	return xs
}

func checkExp(t *testing.T, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	Exp(got)
	for i, x := range xs {
		if want := math.Exp(x); !same(got[i], want) {
			t.Fatalf("Exp(%v) [%#x] = %v [%#x], math.Exp = %v [%#x]",
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpMatchesMathExp: 10^7 inputs, bits compared with math.Exp.
func TestExpMatchesMathExp(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		checkExp(t, expEdges())
		g := gen(1)
		const n, batch = 10_000_000, 4096
		xs := make([]float64, batch)
		for done := 0; done < n; done += batch {
			for i := range xs {
				switch i % 4 {
				case 0: // GBM's exponent: a drift plus a scaled normal
					xs[i] = (g.unit() - 0.5) * 0.2
				case 1: // the whole finite range and its tails
					xs[i] = (g.unit() - 0.5) * 1500
				case 2: // any bit pattern: NaNs, infinities, denormals
					xs[i] = math.Float64frombits(g.next())
				default:
					xs[i] = (g.unit() - 0.5) * 40
				}
			}
			checkExp(t, xs)
		}
	})
}

func checkBoxMuller(t *testing.T, u1, u2 []float64) {
	t.Helper()
	cos, sin := make([]float64, len(u1)), make([]float64, len(u1))
	BoxMuller(u1, u2, cos, sin)
	for i := range u1 {
		r := math.Sqrt(-2 * math.Log(u1[i]))
		s, c := math.Sincos(2 * math.Pi * u2[i])
		if !same(cos[i], r*c) || !same(sin[i], r*s) {
			t.Fatalf("BoxMuller(%v [%#x], %v [%#x]) = (%v, %v), scalar (%v, %v)",
				u1[i], math.Float64bits(u1[i]), u2[i], math.Float64bits(u2[i]), cos[i], sin[i], r*c, r*s)
		}
	}
}

// boxMullerEdges pairs each u1 edge with each u2 edge.
func boxMullerEdges() (u1, u2 []float64) {
	hsqrt2 := 7.07106781186547524401e-01 // log_amd64.s's HSqrt2
	u1s := []float64{
		0x1p-53, 1 - 0x1p-53, 1, 0.5, 0.75, hsqrt2, math.Nextafter(hsqrt2, 0), math.Nextafter(hsqrt2, 1),
		hsqrt2 / 2, hsqrt2 * 0x1p-40, 0x1p-1022, math.Nextafter(0x1p-1022, 0), math.SmallestNonzeroFloat64,
		0, math.Copysign(0, -1), -0.5, 1.5, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	u2s := []float64{0, math.Copysign(0, -1), 1 - 0x1p-53, 0x1p-53, 0.5, 0.25, 0.75, -0.25, 1, 2,
		0x1p29, 0x1p40, math.Inf(1), math.NaN()}
	for e := 0; e < 1022; e++ { // f1 exactly sqrt(2)/2 in every binade
		u1s = append(u1s, math.Ldexp(hsqrt2, -e))
	}
	for k := 1; k < 16; k++ { // octant boundaries of 2*pi*u2
		b := float64(k) / 16
		u2s = append(u2s, b, math.Nextafter(b, 0), math.Nextafter(b, 1))
	}
	lim := (1 << 29) / (2 * math.Pi) // reduceThreshold
	u2s = append(u2s, lim, math.Nextafter(lim, 0), math.Nextafter(lim, math.Inf(1)))
	for _, a := range u1s {
		for _, b := range u2s {
			u1, u2 = append(u1, a), append(u2, b)
		}
	}
	return u1, u2
}

// TestBoxMullerMatchesScalar: 10^7 pairs, bits compared with math.Log,
// math.Sqrt and math.Sincos.
func TestBoxMullerMatchesScalar(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		u1, u2 := boxMullerEdges()
		checkBoxMuller(t, u1, u2)
		g := gen(2)
		const n, batch = 10_000_000, 4096
		u1, u2 = make([]float64, batch), make([]float64, batch)
		for done := 0; done < n; done += batch {
			for i := range u1 {
				switch i % 8 {
				case 0: // any mantissa at a random exponent in (0, 1]
					u1[i] = math.Float64frombits(g.next()>>12 | uint64(1+g.next()%1022)<<52)
					u2[i] = math.Float64frombits(g.next())
				case 1: // f1 near sqrt(2)/2 at random exponents
					u1[i] = math.Float64frombits(0x3fe6a09e667f3bcd + g.next()%64 - 32 - (g.next()%60)<<52)
					u2[i] = g.unit()
				default: // rng.Source.Norm's draws
					u1[i] = g.unit()
					for u1[i] == 0 {
						u1[i] = g.unit()
					}
					u2[i] = g.unit()
				}
			}
			checkBoxMuller(t, u1, u2)
		}
	})
}

// TestLaneCounts runs every lane count from 0 to 67 at every offset
// into a backing array, so whole blocks, tails and unaligned starts are
// all covered, with inputs the vector path refuses mid-run and in the
// tail, and checks that nothing past the lanes is written and that
// BoxMuller in place matches.
func TestLaneCounts(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		g := gen(3)
		const sentinel = -12345.0
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				xs := make([]float64, off+n+4)
				u1, u2 := make([]float64, off+n+4), make([]float64, off+n+4)
				cos, sin := make([]float64, off+n+4), make([]float64, off+n+4)
				for i := range xs {
					xs[i], u1[i], u2[i] = (g.unit()-0.5)*30, 1-g.unit(), g.unit()
					cos[i], sin[i] = sentinel, sentinel
				}
				if n > 5 { // one lane the vector path refuses, mid-run
					xs[off+n/2] = math.NaN()
					u1[off+n/3] = 0
				}
				if n%8 == 7 { // and one in the tail
					xs[off+n-1] = math.Inf(1)
					u1[off+n-1] = math.Nextafter(1, 2)
				}
				want := append([]float64(nil), xs...)
				expScalar(want[off : off+n])
				Exp(xs[off : off+n])
				for i := range xs {
					if !same(xs[i], want[i]) {
						t.Fatalf("n=%d off=%d: Exp lane %d = %v, want %v", n, off, i, xs[i], want[i])
					}
				}
				BoxMuller(u1[off:off+n], u2[off:], cos[off:], sin[off:])
				for i := range cos {
					if i < off || i >= off+n {
						if cos[i] != sentinel || sin[i] != sentinel {
							t.Fatalf("n=%d off=%d: BoxMuller wrote lane %d outside its lanes", n, off, i)
						}
						continue
					}
					r := math.Sqrt(-2 * math.Log(u1[i]))
					s, c := math.Sincos(2 * math.Pi * u2[i])
					if !same(cos[i], r*c) || !same(sin[i], r*s) {
						t.Fatalf("n=%d off=%d: BoxMuller lane %d = (%v, %v), want (%v, %v)", n, off, i, cos[i], sin[i], r*c, r*s)
					}
				}
				// In place: the variates overwrite the uniforms.
				BoxMuller(u1[off:off+n], u2[off:], u1[off:], u2[off:])
				for i := off; i < off+n; i++ {
					if !same(u1[i], cos[i]) || !same(u2[i], sin[i]) {
						t.Fatalf("n=%d off=%d: BoxMuller in place lane %d = (%v, %v), want (%v, %v)", n, off, i, u1[i], u2[i], cos[i], sin[i])
					}
				}
			}
		}
	})
}

// TestDetectMatchesCPU: the vector path is on exactly when this package
// found AVX2 and FMA, and forcing the scalar loops switches it off.
func TestDetectMatchesCPU(t *testing.T) {
	restore := ForceScalar(true)
	if useVector {
		t.Fatal("ForceScalar(true) left the vector path on")
	}
	restore()
	if useVector != hasVector {
		t.Fatal("restore did not bring back the detected path")
	}
	t.Logf("vector path: %v (%d-bit words)", Vector(), bits.UintSize)
}

func BenchmarkExp(b *testing.B) {
	for _, path := range []struct {
		name   string
		scalar bool
	}{{"vector", false}, {"scalar", true}} {
		b.Run(path.name, func(b *testing.B) {
			defer ForceScalar(path.scalar)()
			g := gen(4)
			xs := make([]float64, 64)
			for i := range xs {
				xs[i] = (g.unit() - 0.5) * 0.2
			}
			buf := make([]float64, 64)
			b.ResetTimer()
			for range b.N {
				copy(buf, xs)
				Exp(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/lane")
		})
	}
}

func BenchmarkBoxMuller(b *testing.B) {
	for _, path := range []struct {
		name   string
		scalar bool
	}{{"vector", false}, {"scalar", true}} {
		b.Run(path.name, func(b *testing.B) {
			defer ForceScalar(path.scalar)()
			g := gen(5)
			u1, u2 := make([]float64, 64), make([]float64, 64)
			for i := range u1 {
				u1[i], u2[i] = 1-g.unit(), g.unit()
			}
			cos, sin := make([]float64, 64), make([]float64, 64)
			b.ResetTimer()
			for range b.N {
				BoxMuller(u1, u2, cos, sin)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/pair")
		})
	}
}
