//go:build !race

#include "textflag.h"

// func minPlusLanes(out, row, pivot []int32, rik int32)
//
// Four lanes an iteration: alt = pivot + rik (wrapping), mask = row > alt
// (signed), out = alt where mask, else row.
TEXT ·minPlusLanes(SB), NOSPLIT, $0-76
	MOVQ   out_base+0(FP), DI
	MOVQ   row_base+24(FP), SI
	MOVQ   row_len+32(FP), CX
	MOVQ   pivot_base+48(FP), DX
	MOVL   rik+72(FP), AX
	MOVQ   AX, X0
	PSHUFL $0, X0, X0          // rik in all four lanes
	SHRQ   $2, CX              // lane groups
	JZ     done

loop:
	MOVOU   (DX), X1           // pivot[j:j+4]
	MOVOU   (SI), X2           // row[j:j+4]
	PADDL   X0, X1             // alt
	MOVO    X2, X3
	PCMPGTL X1, X3             // mask = row > alt
	PAND    X3, X1             // alt & mask
	PANDN   X2, X3             // row &^ mask
	POR     X3, X1
	MOVOU   X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DX
	ADDQ    $16, DI
	DECQ    CX
	JNZ     loop

done:
	RET
