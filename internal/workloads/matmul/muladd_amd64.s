//go:build !race

#include "textflag.h"

// func mulAddLanes(d, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64)
//
// Two lanes an instruction: d += a0·r0; d += a1·r1; d += a2·r2;
// d += a3·r3, each term a MULPD rounded and then an ADDPD rounded. The
// main loop runs two registers, four columns an iteration; one more
// pair of columns, if left, runs once on one register.
TEXT ·mulAddLanes(SB), NOSPLIT, $0-152
	MOVQ     d_base+0(FP), DI
	MOVQ     d_len+8(FP), CX
	MOVQ     r0_base+24(FP), SI
	MOVQ     r1_base+48(FP), R8
	MOVQ     r2_base+72(FP), R9
	MOVQ     r3_base+96(FP), R10
	MOVSD    a0+120(FP), X4
	UNPCKLPD X4, X4            // a0 in both lanes
	MOVSD    a1+128(FP), X5
	UNPCKLPD X5, X5
	MOVSD    a2+136(FP), X6
	UNPCKLPD X6, X6
	MOVSD    a3+144(FP), X7
	UNPCKLPD X7, X7
	MOVQ     CX, BX
	SHRQ     $2, BX            // four-column groups
	XORQ     AX, AX            // byte offset of d[j]
	TESTQ    BX, BX
	JZ       pair

quad:
	MOVUPD (DI)(AX*1), X0      // d[j:j+2]
	MOVUPD 16(DI)(AX*1), X2    // d[j+2:j+4]
	MOVUPD (SI)(AX*1), X1
	MOVUPD 16(SI)(AX*1), X3
	MULPD  X4, X1              // a0·r0[j:j+2]
	MULPD  X4, X3
	ADDPD  X1, X0
	ADDPD  X3, X2
	MOVUPD (R8)(AX*1), X1
	MOVUPD 16(R8)(AX*1), X3
	MULPD  X5, X1
	MULPD  X5, X3
	ADDPD  X1, X0
	ADDPD  X3, X2
	MOVUPD (R9)(AX*1), X1
	MOVUPD 16(R9)(AX*1), X3
	MULPD  X6, X1
	MULPD  X6, X3
	ADDPD  X1, X0
	ADDPD  X3, X2
	MOVUPD (R10)(AX*1), X1
	MOVUPD 16(R10)(AX*1), X3
	MULPD  X7, X1
	MULPD  X7, X3
	ADDPD  X1, X0
	ADDPD  X3, X2
	MOVUPD X0, (DI)(AX*1)
	MOVUPD X2, 16(DI)(AX*1)
	ADDQ   $32, AX
	DECQ   BX
	JNZ    quad

pair:
	TESTQ  $2, CX              // len mod 4 >= 2
	JZ     done
	MOVUPD (DI)(AX*1), X0
	MOVUPD (SI)(AX*1), X1
	MULPD  X4, X1
	ADDPD  X1, X0
	MOVUPD (R8)(AX*1), X1
	MULPD  X5, X1
	ADDPD  X1, X0
	MOVUPD (R9)(AX*1), X1
	MULPD  X6, X1
	ADDPD  X1, X0
	MOVUPD (R10)(AX*1), X1
	MULPD  X7, X1
	ADDPD  X1, X0
	MOVUPD X0, (DI)(AX*1)

done:
	RET
