#include "textflag.h"

// func scanFilter(rows *[4]float64, gc *float64, classes, blocks int, acSum, acSumSq, bestSum, bestSumSq float64) int
//
// For each block, lane-wise what argminScan computes per candidate, in its
// order: cross = Σ_y g[y]·row[y] (one IEEE multiply then one IEEE add per
// class, ascending — never a fused multiply-add; ci.sh stage 1 reads the
// assembler's listing for one), sum = acSum + Σc, sumSq = (acSumSq + (cross +
// cross)) + Σc², then (sumSq·bestSum)·bestSum < (bestSumSq·sum)·sum by an
// ordered compare, false on NaN like Go's <. The first block with any lane
// true is returned; nothing else leaves the routine.
TEXT ·scanFilter(SB), NOSPLIT, $0-72
	MOVQ rows+0(FP), DI
	MOVQ gc+8(FP), SI
	MOVQ classes+16(FP), CX
	MOVQ blocks+24(FP), R8
	VBROADCASTSD acSum+32(FP), Y12
	VBROADCASTSD acSumSq+40(FP), Y13
	VBROADCASTSD bestSum+48(FP), Y14
	VBROADCASTSD bestSumSq+56(FP), Y15
	SHLQ $3, CX          // classes·8: gc in bytes, a quarter of the histogram rows
	ADDQ CX, SI          // &gc[classes]
	LEAQ (DI)(CX*4), DI  // block 0's Σc row; class y is (y-classes)·32 below it
	LEAQ 96(CX*4), R9    // bytes per block: classes+3 rows
	NEGQ CX
	XORQ AX, AX

block:
	VXORPD Y0, Y0, Y0
	MOVQ   CX, DX

class:
	VBROADCASTSD (SI)(DX*1), Y1
	VMULPD       (DI)(DX*4), Y1, Y1
	VADDPD       Y0, Y1, Y0
	ADDQ         $8, DX
	JNZ          class

	VADDPD    (DI), Y12, Y2    // sum
	VADDPD    Y0, Y0, Y0       // 2·cross, exactly
	VADDPD    Y0, Y13, Y0
	VADDPD    32(DI), Y0, Y0   // sumSq
	VMULPD    Y14, Y0, Y0
	VMULPD    Y14, Y0, Y0
	VMULPD    Y2, Y15, Y3
	VMULPD    Y2, Y3, Y3
	VCMPPD    $0x11, Y3, Y0, Y0 // Y0 < Y3, ordered, quiet
	VMOVMSKPD Y0, DX
	TESTL     DX, DX
	JNZ       done
	ADDQ      R9, DI
	INCQ      AX
	CMPQ      AX, R8
	JLT       block

done:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET
