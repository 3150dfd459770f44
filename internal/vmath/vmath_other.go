//go:build !amd64

package vmath

// Without the amd64 kernels Exp and BoxMuller are their scalar loops.
const hasVector = false

var useVector = false

func expAVX2(x []float64) int { return 0 }

func boxMullerAVX2(u1, u2, cos, sin []float64) int { return 0 }
