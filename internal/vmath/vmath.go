// Package vmath evaluates the scalar math the lane kernels spend their
// steps in — math.Exp, and the Box–Muller transform's math.Log,
// math.Sqrt and math.Sincos — over a slice of lanes at once, returning
// bit for bit what the scalar calls return.
//
// On amd64 with AVX2, FMA and OS-saved YMM state the work runs four
// lanes per instruction: an assembly transcription of the scalar code
// (math/exp_amd64.s's FMA path, math/log_amd64.s, math/sincos.go) that
// performs each lane's IEEE operations in the scalar order, fusing
// exactly where the scalar code fuses. Shibata's method, which math.Exp
// uses, was designed for such SIMD evaluation ("Efficient evaluation
// methods of elementary functions suitable for SIMD computation", ISC
// 2010). Inputs outside the ranges transcribed (NaN, ±Inf, exp's
// overflow and underflow tails, logs of denormals, huge angles) go
// through the scalar calls. Everywhere else — other CPUs, other
// architectures — the functions are plain loops over the scalar calls,
// which are the definition the vector path is tested against.
//
// No simulation answer depends on which path ran: both return the
// scalar calls' bits, so the samplers' draws, and every golden number
// built on them, are the same on every CPU.
package vmath

import "math"

// Exp sets x[i] = math.Exp(x[i]) for every i.
func Exp(x []float64) {
	if useVector {
		for len(x) >= 4 {
			x = x[expAVX2(x):]
			if len(x) >= 4 { // a block the kernel left to the scalar call
				expScalar(x[:4])
				x = x[4:]
			}
		}
		if len(x) > 0 { // the tail, as a block padded with zeros
			var blk [4]float64
			copy(blk[:], x)
			if expAVX2(blk[:]) == 4 {
				copy(x, blk[:])
				return
			}
		}
	}
	expScalar(x)
}

func expScalar(x []float64) {
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}

// BoxMuller sets, for every i < len(u1),
//
//	r := math.Sqrt(-2 * math.Log(u1[i]))
//	s, c := math.Sincos(2 * math.Pi * u2[i])
//	cos[i], sin[i] = r*c, r*s
//
// the Box–Muller transform of the uniform pair (u1[i], u2[i]). u2, cos
// and sin must be at least as long as u1. cos and sin may be u1 and u2
// themselves, transforming in place, but must not otherwise overlap
// them.
func BoxMuller(u1, u2, cos, sin []float64) {
	n := len(u1)
	u2, cos, sin = u2[:n], cos[:n], sin[:n]
	i := 0
	if useVector {
		for n-i >= 4 {
			i += boxMullerAVX2(u1[i:], u2[i:], cos[i:], sin[i:])
			if n-i >= 4 { // a block the kernel left to the scalar calls
				boxMullerScalar(u1[i:i+4], u2[i:i+4], cos[i:i+4], sin[i:i+4])
				i += 4
			}
		}
		if i < n { // the tail, as a block padded with a pair the kernel takes
			b1, b2 := [4]float64{1, 1, 1, 1}, [4]float64{0.25, 0.25, 0.25, 0.25}
			copy(b1[:], u1[i:])
			copy(b2[:], u2[i:])
			if boxMullerAVX2(b1[:], b2[:], b1[:], b2[:]) == 4 {
				copy(cos[i:], b1[:])
				copy(sin[i:], b2[:])
				return
			}
		}
	}
	boxMullerScalar(u1[i:], u2[i:], cos[i:], sin[i:])
}

func boxMullerScalar(u1, u2, cos, sin []float64) {
	for i := range u1 {
		r := math.Sqrt(-2 * math.Log(u1[i]))
		s, c := math.Sincos(2 * math.Pi * u2[i])
		cos[i], sin[i] = r*c, r*s
	}
}

// ForceScalar makes Exp and BoxMuller take the scalar loops (on) or the
// vector path where the CPU has it (off), and returns a function that
// restores the previous choice. It is for tests that check both paths;
// it must not run while other goroutines call the package.
func ForceScalar(on bool) (restore func()) {
	prev := useVector
	useVector = !on && hasVector
	return func() { useVector = prev }
}

// Vector reports whether this CPU runs the four-lane path.
func Vector() bool { return hasVector }
