// Four-lane AVX2/FMA transcriptions of the scalar math the lane kernels
// call: math.Exp's FMA path (math/exp_amd64.s), math.Log
// (math/log_amd64.s), math.Sqrt and math.Sincos (math/sincos.go). Each
// lane performs the scalar code's IEEE operations in the scalar code's
// order — fused exactly where the scalar code fuses — so every lane's
// result has the scalar call's bits. Constants are the scalar sources'
// constants, spelled as bit patterns and repeated four times so they
// serve as 256-bit memory operands.

#include "textflag.h"

#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(zero, 0x0000000000000000)
CONST4(half, 0x3fe0000000000000)  // 0.5, also the exponent bits of [0.5, 1)
CONST4(one, 0x3ff0000000000000)
CONST4(two, 0x4000000000000000)
CONST4(minus2, 0xc000000000000000)
CONST4(signbit, 0x8000000000000000)
CONST4(mantissa, 0x000fffffffffffff)

// Exp (math/exp_amd64.s).
CONST4(explo, 0xc086200000000000)  // -708: above it the exponent stays >= -1022
CONST4(exphi, 0x4086280000000000)  // 709: below it the exponent stays <= 1023
CONST4(log2e, 0x3ff71547652b82fe)
CONST4(ln2u, 0x3fe62e42fefa3000)
CONST4(ln2l, 0x3d53de6af278ece6)
CONST4(sixteenth, 0x3fb0000000000000)
CONST4(exp8, 0x3efa01a01a01a01a)
CONST4(exp7, 0x3f2a01a01a01a01a)
CONST4(exp6, 0x3f56c16c16c16c17)
CONST4(exp5, 0x3f81111111111111)
CONST4(exp4, 0x3fa5555555555555)
CONST4(exp3, 0x3fc5555555555555)
DATA bias<>+0(SB)/4, $1023  // int32 exponent bias, four lanes
DATA bias<>+4(SB)/4, $1023
DATA bias<>+8(SB)/4, $1023
DATA bias<>+12(SB)/4, $1023
GLOBL bias<>(SB), RODATA|NOPTR, $16

// Log (math/log_amd64.s).
CONST4(minnormal, 0x0010000000000000)
CONST4(two52k, 0x43300000000003fe)  // 2^52 + 1022: turns the exponent field into k
CONST4(hsqrt2, 0x3fe6a09e667f3bcd)
CONST4(ln2hi, 0x3fe62e42fee00000)
CONST4(ln2lo, 0x3dea39ef35793c76)
CONST4(log1, 0x3fe5555555555593)
CONST4(log2, 0x3fd999999997fa04)
CONST4(log3, 0x3fd2492494229359)
CONST4(log4, 0x3fcc71c51d8e78af)
CONST4(log5, 0x3fc7466496cb03de)
CONST4(log6, 0x3fc39a09d078c69f)
CONST4(log7, 0x3fc2f112df3e5244)
CONST4(two52, 0x4330000000000000)

// Sincos (math/sincos.go, math/sin.go).
CONST4(twopi, 0x401921fb54442d18)
CONST4(reduce, 0x41c0000000000000)  // reduceThreshold, 1<<29
CONST4(fouroverpi, 0x3ff45f306dc9c883)
CONST4(pi4a, 0x3fe921fb40000000)
CONST4(pi4b, 0x3e64442d00000000)
CONST4(pi4c, 0x3ce8469898cc5170)
CONST4(sin0, 0x3de5d8fd1fd19ccd)
CONST4(sin1, 0xbe5ae5e5a9291f5d)
CONST4(sin2, 0x3ec71de3567d48a1)
CONST4(sin3, 0xbf2a01a019bfdf03)
CONST4(sin4, 0x3f8111111110f7d0)
CONST4(sin5, 0xbfc5555555555548)
CONST4(cos0, 0xbda8fa49a0861a9b)
CONST4(cos1, 0x3e21ee9d7b4e3f05)
CONST4(cos2, 0xbe927e4f7eac4bc6)
CONST4(cos3, 0x3efa01a019c844f5)
CONST4(cos4, 0xbf56c16c16c14f91)
CONST4(cos5, 0x3fa555555555554b)
DATA oddbit<>+0(SB)/4, $1
DATA oddbit<>+4(SB)/4, $1
DATA oddbit<>+8(SB)/4, $1
DATA oddbit<>+12(SB)/4, $1
GLOBL oddbit<>(SB), RODATA|NOPTR, $16

// func expAVX2(x []float64) int
//
// Overwrites x[i] with exp(x[i]), four lanes at a time, and returns how
// many lanes it did: it stops at the end of the last whole block, or
// before the first block holding a lane outside [-708, 709] (NaN
// included), where the scalar code leaves its polynomial path.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX

exploop:
	CMPQ AX, CX
	JGE  expdone
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $0x1d, explo<>(SB), Y0, Y1 // x >= -708, false on NaN
	VCMPPD  $0x12, exphi<>(SB), Y0, Y2 // x <= 709, false on NaN
	VANDPD  Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ    DX, $15
	JNE     expdone

	// n = round(x*log2e); x -= n*ln2u; x -= n*ln2l (fused); x *= 1/16
	VMULPD       log2e<>(SB), Y0, Y1
	VCVTPD2DQY   Y1, X3
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD ln2u<>(SB), Y1, Y0
	VFNMADD231PD ln2l<>(SB), Y1, Y0
	VMULPD       sixteenth<>(SB), Y0, Y0

	// Taylor series, fused as the scalar FMA path fuses it
	VMOVUPD     exp8<>(SB), Y1
	VFMADD213PD exp7<>(SB), Y0, Y1
	VFMADD213PD exp6<>(SB), Y0, Y1
	VFMADD213PD exp5<>(SB), Y0, Y1
	VFMADD213PD exp4<>(SB), Y0, Y1
	VFMADD213PD exp3<>(SB), Y0, Y1
	VFMADD213PD half<>(SB), Y0, Y1
	VFMADD213PD one<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VFMADD213PD one<>(SB), Y1, Y0

	// times 2^n, built from the biased exponent's bits
	VPADDD    bias<>(SB), X3, X3
	VPMOVZXDQ X3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0
	VMOVUPD   Y0, (SI)(AX*8)
	ADDQ      $4, AX
	JMP       exploop

expdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func boxMullerAVX2(u1, u2, cos, sin []float64) int
//
// For each lane, r = sqrt(-2*log(u1)) and (s, c) = sincos(2*pi*u2), then
// cos = r*c and sin = r*s, four lanes at a time, over len(u1) lanes (the
// caller guarantees the other slices are as long; cos and sin may be u1
// and u2, as each block is loaded before it is stored). It returns how many
// lanes it did: it stops at the end of the last whole block, or before
// the first block holding a u1 outside [2^-1022, 1] or a 2*pi*u2 outside
// (0, 2^29), where the scalar code takes paths not transcribed here.
TEXT ·boxMullerAVX2(SB), NOSPLIT, $0-104
	MOVQ u1_base+0(FP), SI
	MOVQ u1_len+8(FP), CX
	MOVQ u2_base+24(FP), DI
	MOVQ cos_base+48(FP), R8
	MOVQ sin_base+72(FP), R9
	ANDQ $~3, CX
	XORQ AX, AX

bmloop:
	CMPQ AX, CX
	JGE  bmdone
	VMOVUPD (SI)(AX*8), Y0             // u1
	VMOVUPD (DI)(AX*8), Y1             // u2
	VMULPD  twopi<>(SB), Y1, Y1        // x = 2*pi*u2
	VCMPPD  $0x1d, minnormal<>(SB), Y0, Y2
	VCMPPD  $0x12, one<>(SB), Y0, Y3
	VANDPD  Y3, Y2, Y2
	VCMPPD  $0x1e, zero<>(SB), Y1, Y3  // x > 0: Sincos(-0) is -0 by a special case
	VANDPD  Y3, Y2, Y2
	VCMPPD  $0x11, reduce<>(SB), Y1, Y3
	VANDPD  Y3, Y2, Y2
	VMOVMSKPD Y2, DX
	CMPQ    DX, $15
	JNE     bmdone

	// Sincos: j = trunc(x*4/pi), rounded up to even; y = float64(j);
	// z = ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD      fouroverpi<>(SB), Y1, Y2
	VCVTTPD2DQY Y2, X3
	VPAND       oddbit<>(SB), X3, X4
	VPADDD      X4, X3, X3
	VCVTDQ2PD   X3, Y4
	VMULPD      pi4a<>(SB), Y4, Y5
	VSUBPD      Y5, Y1, Y5
	VMULPD      pi4b<>(SB), Y4, Y6
	VSUBPD      Y6, Y5, Y5
	VMULPD      pi4c<>(SB), Y4, Y6
	VSUBPD      Y6, Y5, Y5             // z
	VMULPD      Y5, Y5, Y6             // zz

	// c = (1 - 0.5*zz) + (zz*zz)*poly(zz)
	VMULPD cos0<>(SB), Y6, Y7
	VADDPD cos1<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD cos2<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD cos3<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD cos4<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD cos5<>(SB), Y7, Y7
	VMULPD Y6, Y6, Y8
	VMULPD Y7, Y8, Y7
	VMULPD half<>(SB), Y6, Y8
	VMOVUPD one<>(SB), Y9
	VSUBPD Y8, Y9, Y8
	VADDPD Y7, Y8, Y7                  // c

	// s = z + (z*zz)*poly(zz)
	VMULPD sin0<>(SB), Y6, Y8
	VADDPD sin1<>(SB), Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD sin2<>(SB), Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD sin3<>(SB), Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD sin4<>(SB), Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD sin5<>(SB), Y8, Y8
	VMULPD Y6, Y5, Y9
	VMULPD Y8, Y9, Y8
	VADDPD Y8, Y5, Y8                  // s

	// Octant j&7 is 0, 2, 4 or 6: bit 1 swaps the pair, bit 2 negates
	// the sine, and bit 1 xor bit 2 negates the cosine.
	VPMOVZXDQ X3, Y3
	VPSLLQ    $62, Y3, Y9              // bit 1 to the sign: swap
	VPSLLQ    $61, Y3, Y10             // bit 2 to the sign
	VXORPD    Y10, Y9, Y11
	VANDPD    signbit<>(SB), Y10, Y10  // sine's sign flip
	VANDPD    signbit<>(SB), Y11, Y11  // cosine's sign flip
	VBLENDVPD Y9, Y7, Y8, Y12          // sine: swap ? c : s
	VBLENDVPD Y9, Y8, Y7, Y13          // cosine: swap ? s : c
	VXORPD    Y10, Y12, Y12
	VXORPD    Y11, Y13, Y13

	// Log: f1 = mantissa in [0.5, 1), k = exponent - 1022; if
	// f1 <= sqrt(2)/2 { k--; f1 *= 2 } (log_amd64.s's CMPSD ..., 5 is
	// not-less-than with the operands this way round, so equality
	// counts); f = f1 - 1
	VANDPD  mantissa<>(SB), Y0, Y1
	VORPD   half<>(SB), Y1, Y1
	VPSRLQ  $52, Y0, Y2
	VPOR    two52<>(SB), Y2, Y2
	VSUBPD  two52k<>(SB), Y2, Y2       // k, exactly
	VCMPPD  $0x02, hsqrt2<>(SB), Y1, Y3
	VANDPD  one<>(SB), Y3, Y3
	VSUBPD  Y3, Y2, Y2
	VADDPD  one<>(SB), Y3, Y3
	VMULPD  Y3, Y1, Y1
	VSUBPD  one<>(SB), Y1, Y1          // f

	// s = f/(2+f); R = s2*(L1+s4*(L3+s4*(L5+s4*L7))) + s4*(L2+s4*(L4+s4*L6))
	VADDPD two<>(SB), Y1, Y3
	VDIVPD Y3, Y1, Y3                  // s
	VMULPD Y3, Y3, Y4                  // s2
	VMULPD Y4, Y4, Y5                  // s4
	VMULPD log7<>(SB), Y5, Y6
	VADDPD log5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD log3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD log1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4                  // t1
	VMULPD log6<>(SB), Y5, Y6
	VADDPD log4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD log2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5                  // t2
	VADDPD Y5, Y4, Y4                  // R

	// log = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f), hfsq = 0.5*f*f
	VMULPD half<>(SB), Y1, Y6
	VMULPD Y1, Y6, Y6                  // hfsq
	VADDPD Y6, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD ln2lo<>(SB), Y2, Y5
	VADDPD Y5, Y3, Y3
	VSUBPD Y3, Y6, Y6
	VSUBPD Y1, Y6, Y6
	VMULPD ln2hi<>(SB), Y2, Y2
	VSUBPD Y6, Y2, Y2                  // log(u1)

	// r = sqrt(-2*log(u1)); cos = r*c; sin = r*s
	VMULPD  minus2<>(SB), Y2, Y2
	VSQRTPD Y2, Y0
	VMULPD  Y13, Y0, Y13
	VMULPD  Y12, Y0, Y12
	VMOVUPD Y13, (R8)(AX*8)
	VMOVUPD Y12, (R9)(AX*8)
	ADDQ    $4, AX
	JMP     bmloop

bmdone:
	VZEROUPPER
	MOVQ AX, ret+96(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
