package rng

import (
	"math"
	"testing"

	"durability/internal/vmath"
)

// bothPaths runs f with vmath on its vector path (where the CPU has it)
// and on its scalar loops.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("vector", func(t *testing.T) {
		if !vmath.Vector() {
			t.Skip("no AVX2/FMA on this CPU")
		}
		defer vmath.ForceScalar(false)()
		f(t)
	})
	t.Run("scalar", func(t *testing.T) {
		defer vmath.ForceScalar(true)()
		f(t)
	})
}

// normTwins holds each lane's source twice: one for NormLanes, one for
// per-lane Norm calls, and one NormScratch reused by every round, as a
// lane kernel reuses its own.
type normTwins struct {
	batch, ref []Source
	ptr        []*Source
	w          NormScratch
}

func newNormTwins(lanes int, seed uint64) *normTwins {
	tw := &normTwins{batch: make([]Source, lanes), ref: make([]Source, lanes), ptr: make([]*Source, lanes)}
	for i := range tw.batch {
		tw.batch[i].SeedStream(seed, uint64(i))
		tw.ref[i] = tw.batch[i]
		tw.ptr[i] = &tw.batch[i]
	}
	return tw
}

// round draws one normal for each of lanes through NormLanes and
// through Norm, and fails unless the variates and every source (state
// and cached variate) are ==.
func (tw *normTwins) round(t *testing.T, lanes []int) {
	t.Helper()
	dst := make([]float64, len(lanes))
	for done := 0; done < len(lanes); {
		n := tw.w.NormLanes(dst[done:], lanes[done:], tw.ptr)
		if want := min(len(lanes)-done, LaneChunk); n != want {
			t.Fatalf("NormLanes did %d lanes of %d, want %d", n, len(lanes)-done, want)
		}
		done += n
	}
	for k, l := range lanes {
		if want := tw.ref[l].Norm(); math.Float64bits(dst[k]) != math.Float64bits(want) {
			t.Fatalf("lane %d: NormLanes %v, Norm %v", l, dst[k], want)
		}
	}
	for i := range tw.batch {
		if tw.batch[i] != tw.ref[i] {
			t.Fatalf("lane %d: source %+v after NormLanes, %+v after Norm", i, tw.batch[i], tw.ref[i])
		}
	}
}

// TestNormLanesMatchesNorm draws 10^7 normals through NormLanes: random
// distinct lane subsets in random order, so lanes with and without a
// cached variate mix in every round, and lanes that restart (re-seed,
// which drops the cache) between rounds, as the kernel's lanes do when a
// root ends.
func TestNormLanesMatchesNorm(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		const lanes, draws = 80, 10_000_000
		tw := newNormTwins(lanes, 5)
		pick := New(6)
		perm := make([]int, lanes)
		roots := uint64(lanes)
		for done := 0; done < draws; {
			pick.Perm(perm)
			active := perm[:pick.Intn(lanes+1)]
			tw.round(t, active)
			done += len(active)
			for range pick.Intn(4) {
				l := pick.Intn(lanes)
				tw.batch[l].SeedStream(5, roots)
				tw.ref[l].SeedStream(5, roots)
				roots++
			}
		}
	})
}

// TestNormLanesCounts: every lane count from 0 to 67, starting with
// every cache state, and a dst shorter than lanes.
func TestNormLanesCounts(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		for n := 0; n <= 67; n++ {
			tw := newNormTwins(n, uint64(100+n))
			lanes := make([]int, n)
			for i := range lanes {
				lanes[i] = n - 1 - i
			}
			for round := 0; round < 3; round++ {
				tw.round(t, lanes)
				tw.round(t, lanes[:n/2]) // half the lanes cached, half not
			}
		}
		tw := newNormTwins(10, 1)
		lanes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		if n := tw.w.NormLanes(make([]float64, 3), lanes, tw.ptr); n != 3 {
			t.Fatalf("NormLanes with room for 3 did %d lanes", n)
		}
		for i := range 3 {
			tw.ref[i].Norm()
		}
		for i := range tw.batch {
			if tw.batch[i] != tw.ref[i] {
				t.Fatalf("lane %d: a lane past dst's room was drawn from", i)
			}
		}
	})
}

// drawing returns a Source whose next two Uint64 outputs are x1 and x2:
// xoshiro256**'s output is rotl(s1*5, 7)*9, a bijection of s1, and the
// second output's s1 is s1^s2^s0.
func drawing(x1, x2 uint64) Source {
	inv := func(a uint64) uint64 { // a^-1 mod 2^64 by Newton's iteration
		v := a
		for range 6 {
			v *= 2 - a*v
		}
		return v
	}
	s1For := func(x uint64) uint64 {
		y := x * inv(9)
		return (y>>7 | y<<57) * inv(5)
	}
	g := Gen{s0: 0x243f6a8885a308d3, s1: s1For(x1), s3: 0x13198a2e03707344}
	g.s2 = g.s1 ^ g.s0 ^ s1For(x2)
	return Source{g: g}
}

// TestNormLanesEdgeDraws crafts sources whose Box–Muller uniforms are
// the transform's edges — u1 = 2^-53 and just below 1, u2 = 0 and just
// below 1, u1 exactly sqrt(2)/2 (where math.Log halves its mantissa) and
// its neighbours — in a chunk with ordinary lanes around them.
func TestNormLanesEdgeDraws(t *testing.T) {
	grid := func(u float64) uint64 { return uint64(u*(1<<53)) << 11 } // Float64's inverse
	hsqrt2 := math.Float64frombits(0x3fe6a09e667f3bcd)
	pairs := [][2]float64{ // on Float64's 2^-53 grid, as every draw is
		{0x1p-53, 0.375}, {1 - 0x1p-53, 0.375}, {0.625, 0}, {0.625, 1 - 0x1p-53},
		{0x1p-53, 0}, {1 - 0x1p-53, 1 - 0x1p-53}, {hsqrt2, 0.625},
		{math.Nextafter(hsqrt2, 0), 0.875}, {math.Nextafter(hsqrt2, 1), 0.125},
	}
	bothPaths(t, func(t *testing.T) {
		tw := newNormTwins(4*len(pairs), 8)
		for i, p := range pairs {
			src := drawing(grid(p[0]), grid(p[1]))
			if u1, u2 := src.Float64Open(), src.Float64(); u1 != p[0] || u2 != p[1] {
				t.Fatalf("crafted source draws (%v, %v), want (%v, %v)", u1, u2, p[0], p[1])
			}
			tw.batch[4*i+1] = drawing(grid(p[0]), grid(p[1]))
			tw.ref[4*i+1] = tw.batch[4*i+1]
		}
		lanes := make([]int, len(tw.batch))
		for i := range lanes {
			lanes[i] = i
		}
		tw.round(t, lanes)
		tw.round(t, lanes) // the cached halves
	})
}

func BenchmarkNormLanes(b *testing.B) {
	tw := newNormTwins(LaneChunk, 1)
	lanes := make([]int, LaneChunk)
	for i := range lanes {
		lanes[i] = i
	}
	var dst [LaneChunk]float64
	b.Run("lanes", func(b *testing.B) {
		for b.Loop() {
			tw.w.NormLanes(dst[:], lanes, tw.ptr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*LaneChunk), "ns/normal")
	})
	b.Run("norm", func(b *testing.B) {
		for b.Loop() {
			for k, l := range lanes {
				dst[k] = tw.ptr[l].Norm()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*LaneChunk), "ns/normal")
	})
}
