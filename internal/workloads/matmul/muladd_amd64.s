//go:build !race

#include "textflag.h"

// func mulAddPairLanes(d0, d1, r0, r1, r2, r3 []float64, a0, a1 *[4]float64)
//
// Four columns of two result rows an iteration: each r vector is loaded
// once and multiplied by both rows' coefficients. Per term a VMULPD
// rounded and then a VADDPD rounded, in ascending k.
TEXT ·mulAddPairLanes(SB), NOSPLIT, $0-160
	MOVQ         d0_base+0(FP), DI
	MOVQ         d0_len+8(FP), CX
	MOVQ         d1_base+24(FP), DX
	MOVQ         r0_base+48(FP), SI
	MOVQ         r1_base+72(FP), R8
	MOVQ         r2_base+96(FP), R9
	MOVQ         r3_base+120(FP), R10
	MOVQ         a0+144(FP), R11
	MOVQ         a1+152(FP), R12
	VBROADCASTSD (R11), Y0       // a0[0] in all four lanes
	VBROADCASTSD 8(R11), Y1
	VBROADCASTSD 16(R11), Y2
	VBROADCASTSD 24(R11), Y3
	VBROADCASTSD (R12), Y4       // a1[0]
	VBROADCASTSD 8(R12), Y5
	VBROADCASTSD 16(R12), Y6
	VBROADCASTSD 24(R12), Y7
	SHRQ         $2, CX          // four-column groups
	JZ           done
	XORQ         AX, AX          // byte offset of d0[j]

loop:
	VMOVUPD (DI)(AX*1), Y8       // d0[j:j+4]
	VMOVUPD (DX)(AX*1), Y9       // d1[j:j+4]
	VMOVUPD (SI)(AX*1), Y10      // r0[j:j+4]
	VMULPD  Y0, Y10, Y11
	VMULPD  Y4, Y10, Y10
	VADDPD  Y11, Y8, Y8
	VADDPD  Y10, Y9, Y9
	VMOVUPD (R8)(AX*1), Y10      // r1
	VMULPD  Y1, Y10, Y11
	VMULPD  Y5, Y10, Y10
	VADDPD  Y11, Y8, Y8
	VADDPD  Y10, Y9, Y9
	VMOVUPD (R9)(AX*1), Y10      // r2
	VMULPD  Y2, Y10, Y11
	VMULPD  Y6, Y10, Y10
	VADDPD  Y11, Y8, Y8
	VADDPD  Y10, Y9, Y9
	VMOVUPD (R10)(AX*1), Y10     // r3
	VMULPD  Y3, Y10, Y11
	VMULPD  Y7, Y10, Y10
	VADDPD  Y11, Y8, Y8
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y9, (DX)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET
