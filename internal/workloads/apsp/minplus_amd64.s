//go:build !race

#include "textflag.h"

// func minPlusLanes(out, row, pivot []int32, rik int32)
//
// Sixteen lanes an iteration, in two registers: alt = pivot + rik
// (VPADDD, wrapping), out = min(row, alt) (VPMINSD, signed).
TEXT ·minPlusLanes(SB), NOSPLIT, $0-76
	MOVQ         out_base+0(FP), DI
	MOVQ         row_base+24(FP), SI
	MOVQ         row_len+32(FP), CX
	MOVQ         pivot_base+48(FP), DX
	MOVL         rik+72(FP), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0         // rik in all eight lanes
	SHRQ         $4, CX         // sixteen-lane groups
	JZ           done
	XORQ         AX, AX         // byte offset of row[j]

loop:
	VPADDD  (DX)(AX*1), Y0, Y1   // alt = pivot[j:j+8] + rik
	VPADDD  32(DX)(AX*1), Y0, Y2 // pivot[j+8:j+16] + rik
	VPMINSD (SI)(AX*1), Y1, Y1   // min(row[j:j+8], alt)
	VPMINSD 32(SI)(AX*1), Y2, Y2
	VMOVDQU Y1, (DI)(AX*1)
	VMOVDQU Y2, 32(DI)(AX*1)
	ADDQ    $64, AX
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET
