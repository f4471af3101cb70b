//go:build !race

#include "textflag.h"

// lanes<> is j's offset from the block's first j in each lane of the
// first vector; each later vector is eight further on.
DATA lanes<>+0x00(SB)/4, $0
DATA lanes<>+0x04(SB)/4, $1
DATA lanes<>+0x08(SB)/4, $2
DATA lanes<>+0x0c(SB)/4, $3
DATA lanes<>+0x10(SB)/4, $4
DATA lanes<>+0x14(SB)/4, $5
DATA lanes<>+0x18(SB)/4, $6
DATA lanes<>+0x1c(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// STEP is one Euclid step of the chain in a, b, with Y8–Y11 as scratch
// and Y12 = 0. z (Y8) is all ones where b = 0, and d (Y9) = b − z is b,
// or 1 where b = 0. q = trunc(float32(a)/float32(d)) is exactly ⌊a/d⌋
// for a ≤ 2²⁴ (see phiAVX2), so r = a − q·d is a mod d: 0 where b = 0.
// The next a is b, or a where b = 0; the next b is r.
#define STEP(a, b) \
	VPCMPEQD   Y12, b, Y8    \
	VPSUBD     Y8, b, Y9     \
	VCVTDQ2PS  a, Y10        \
	VCVTDQ2PS  Y9, Y11       \
	VDIVPS     Y11, Y10, Y10 \
	VCVTTPS2DQ Y10, Y10      \
	VPMULLD    Y9, Y10, Y10  \
	VPSUBD     Y10, a, Y10   \
	VPAND      a, Y8, Y8     \
	VPOR       b, Y8, a      \
	VMOVDQA    Y10, b

// func phiAVX2(k uint32) int
//
// Registers: Y0–Y3 the four a vectors, Y4–Y7 the four b vectors, Y8–Y11
// scratch, Y12 zero, Y13 k in every lane, Y14 one in every lane, Y15 the
// count of lanes that ended with gcd 1. CX is k, DX the block's first j.
TEXT ·phiAVX2(SB), NOSPLIT, $0-16
	MOVL         k+0(FP), CX
	VMOVD        CX, X13
	VPBROADCASTD X13, Y13
	VPXOR        Y12, Y12, Y12
	VPCMPEQD     Y14, Y14, Y14
	VPSRLD       $31, Y14, Y14
	VPXOR        Y15, Y15, Y15
	MOVL         $1, DX

block:
	// b = j for the 32 j from DX on, 0 where j ≥ k; a = k.
	VMOVD        DX, X8
	VPBROADCASTD X8, Y8
	MOVL         $8, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	VPADDD       lanes<>(SB), Y8, Y4
	VPADDD       Y10, Y4, Y5
	VPADDD       Y10, Y5, Y6
	VPADDD       Y10, Y6, Y7
	VPCMPGTD     Y4, Y13, Y9
	VPAND        Y9, Y4, Y4
	VPCMPGTD     Y5, Y13, Y9
	VPAND        Y9, Y5, Y5
	VPCMPGTD     Y6, Y13, Y9
	VPAND        Y9, Y6, Y6
	VPCMPGTD     Y7, Y13, Y9
	VPAND        Y9, Y7, Y7
	VMOVDQA      Y13, Y0
	VMOVDQA      Y13, Y1
	VMOVDQA      Y13, Y2
	VMOVDQA      Y13, Y3

	PCALIGN $32

round:
	STEP(Y0, Y4)
	STEP(Y1, Y5)
	STEP(Y2, Y6)
	STEP(Y3, Y7)
	VPOR   Y4, Y5, Y8
	VPOR   Y6, Y7, Y9
	VPOR   Y8, Y9, Y8
	VPTEST Y8, Y8
	JNZ    round

	// Count the lanes whose gcd is 1: each match is −1 in the compare.
	VPCMPEQD Y14, Y0, Y8
	VPSUBD   Y8, Y15, Y15
	VPCMPEQD Y14, Y1, Y8
	VPSUBD   Y8, Y15, Y15
	VPCMPEQD Y14, Y2, Y8
	VPSUBD   Y8, Y15, Y15
	VPCMPEQD Y14, Y3, Y8
	VPSUBD   Y8, Y15, Y15

	ADDL $32, DX
	CMPL DX, CX
	JB   block

	// Sum the eight lane counts.
	VEXTRACTI128 $1, Y15, X8
	VPADDD       X8, X15, X8
	VPSHUFD      $0x4e, X8, X9
	VPADDD       X9, X8, X8
	VPSHUFD      $0xb1, X8, X9
	VPADDD       X9, X8, X8
	VMOVD        X8, AX
	VZEROUPPER
	MOVQ         AX, ret+8(FP)
	RET
