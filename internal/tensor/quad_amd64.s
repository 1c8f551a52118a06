#include "textflag.h"

// func quadUpdate(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
//
// d[j] = (((d[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j] for j in
// [0, n): four columns a step in YMM, then one pair, then one scalar. Every
// lane is one IEEE multiply and one IEEE add per term, in ascending-term
// order, with d as the add's first source like the Go loop's ADDSD — never a
// fused multiply-add, which rounds once where the contract rounds twice
// (ci.sh stage 1 greps the disassembly for it).
TEXT ·quadUpdate(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ AX, AX
	SUBQ $4, CX
	JLT  pair

quad:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	SUBQ    $4, CX
	JGE     quad

pair:
	TESTQ $2, CX
	JZ    single
	VMOVUPD (DI)(AX*8), X4
	VMULPD  (R8)(AX*8), X0, X5
	VADDPD  X5, X4, X4
	VMULPD  (R9)(AX*8), X1, X5
	VADDPD  X5, X4, X4
	VMULPD  (R10)(AX*8), X2, X5
	VADDPD  X5, X4, X4
	VMULPD  (R11)(AX*8), X3, X5
	VADDPD  X5, X4, X4
	VMOVUPD X4, (DI)(AX*8)
	ADDQ    $2, AX

single:
	TESTQ $1, CX
	JZ    done
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)

done:
	VZEROUPPER
	RET
