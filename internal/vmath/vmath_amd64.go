package vmath

// hasVector reports AVX2 and FMA with YMM state saved by the OS: the
// CPUs the assembly kernels run on. math.Exp takes its own FMA path
// whenever AVX and FMA are present, so on these CPUs the kernels
// transcribe the path the scalar call takes.
var hasVector = detectAVX2FMA()

// useVector is hasVector unless a test forces the scalar loops.
var useVector = hasVector

//go:noescape
func expAVX2(x []float64) int

//go:noescape
func boxMullerAVX2(u1, u2, cos, sin []float64) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
