package rng

import (
	"math"
	"math/bits"
	"testing"
)

// frozenXoshiro is Source's generator step as it stood before Gen: the
// four words updated in place through a pointer. Gen.Next and every
// Source draw must reproduce its outputs and its state.
type frozenXoshiro struct{ s0, s1, s2, s3 uint64 }

func (s *frozenXoshiro) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

func (s *frozenXoshiro) gen() Gen { return Gen{s.s0, s.s1, s.s2, s.s3} }

// TestGenMatchesFrozenXoshiro steps a Gen, a Source and the frozen
// generator side by side over 10^7 outputs per seed: Gen.Next and
// Source.Uint64 must return the frozen outputs, and Gen's and Source's
// Float64 and Float64Open (taken in turn) its outputs' top 53 bits.
func TestGenMatchesFrozenXoshiro(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n /= 100
	}
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, math.MaxUint64} {
		src := New(seed)
		g := src.Gen()
		ref := frozenXoshiro{g.s0, g.s1, g.s2, g.s3}
		for i := range n {
			want := ref.Uint64()
			var x uint64
			g, x = g.Next()
			if x != want || src.Uint64() != want {
				t.Fatalf("seed %#x output %d: Gen.Next %#x, want %#x", seed, i, x, want)
			}
			u := float64(ref.Uint64()>>11) / (1 << 53)
			var gu, su float64
			if i%2 == 0 {
				g, gu = g.Float64()
				su = src.Float64()
			} else {
				g, gu = g.Float64Open()
				su = src.Float64Open()
			}
			if gu != u || su != u {
				t.Fatalf("seed %#x draw %d: Gen %v, Source %v, want %v", seed, i, gu, su, u)
			}
		}
		if g != ref.gen() || src.Gen() != ref.gen() {
			t.Fatalf("seed %#x: states diverged from the frozen generator after %d outputs", seed, 2*n)
		}
	}
}

// TestPoissonProductMatchesFrozen: PoissonProduct, which draws on the
// generator words held in locals, returns the counts of the product
// method over the frozen generator and leaves the same state.
func TestPoissonProductMatchesFrozen(t *testing.T) {
	src := New(3)
	g := src.Gen()
	ref := frozenXoshiro{g.s0, g.s1, g.s2, g.s3}
	for i := range 200_000 {
		limit := math.Exp(-[]float64{0.1, 0.8, 4.5, 29.9}[i%4])
		want, p := 0, 1.0
		for {
			p *= float64(ref.Uint64()>>11) / (1 << 53)
			if p <= limit {
				break
			}
			want++
		}
		if got := src.PoissonProduct(limit); got != want {
			t.Fatalf("count %d at limit %v: %d, want %d", i, limit, got, want)
		}
	}
	if src.Gen() != ref.gen() {
		t.Fatal("PoissonProduct left a different state than the frozen generator")
	}
}

// TestGenFloat64OpenSkipsZero: a draw whose top 53 bits are zero is
// skipped by both Float64Opens, which return the next draw's value and
// leave the state two steps on.
func TestGenFloat64OpenSkipsZero(t *testing.T) {
	const next = 0x5555 << 11
	src := drawing(0x7ff, next) // Float64 would read 0
	g := src.Gen()
	ref := frozenXoshiro{g.s0, g.s1, g.s2, g.s3}
	ref.Uint64()
	ref.Uint64()
	want := float64(next>>11) / (1 << 53)
	g, gu := g.Float64Open()
	if su := src.Float64Open(); gu != want || su != want {
		t.Fatalf("Float64Open after a zero draw: Gen %v, Source %v, want %v", gu, su, want)
	}
	if g != ref.gen() || src.Gen() != ref.gen() {
		t.Fatal("Float64Open did not take exactly two steps over one zero draw")
	}
}

// TestGenRoundTripKeepsNormCache interleaves Norm calls with Gen/SetGen
// round trips at random points, so some are taken with a cached
// Box-Muller variate and some without. Between Gen and SetGen the
// generator draws on the taken words; a twin makes the same draws
// through its Source methods. Both must return the same normals and end
// in the same full state, cache included.
func TestGenRoundTripKeepsNormCache(t *testing.T) {
	hot, twin, pick := New(7), New(7), New(99)
	for i := range 200_000 {
		if pick.Intn(3) == 0 {
			g := hot.Gen()
			for range pick.Intn(4) {
				var gx, sx uint64 // the draws' bits
				switch pick.Intn(3) {
				case 0:
					g, gx = g.Next()
					sx = twin.Uint64()
				case 1:
					var v float64
					g, v = g.Float64()
					gx, sx = math.Float64bits(v), math.Float64bits(twin.Float64())
				default:
					var v float64
					g, v = g.Float64Open()
					gx, sx = math.Float64bits(v), math.Float64bits(twin.Float64Open())
				}
				if gx != sx {
					t.Fatalf("round trip %d: Gen drew %#x, Source %#x", i, gx, sx)
				}
			}
			hot.SetGen(g)
		}
		if a, b := hot.Norm(), twin.Norm(); a != b {
			t.Fatalf("Norm %d after round trips: %v, twin %v", i, a, b)
		}
	}
	a, _ := hot.MarshalBinary()
	b, _ := twin.MarshalBinary()
	if string(a) != string(b) {
		t.Fatal("round trips left a different full state than the twin's draws")
	}
}
