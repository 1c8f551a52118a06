#include "textflag.h"

// rowmask<> is 16 all-ones quadwords then 16 zero ones: the 32 bytes at
// rowmask<>+8·(16-r+4v) are the VMASKMOVPD mask of vector v of an r-column
// tail (lane l is on iff 4v+l < r).
DATA rowmask<>+0(SB)/8, $-1
DATA rowmask<>+8(SB)/8, $-1
DATA rowmask<>+16(SB)/8, $-1
DATA rowmask<>+24(SB)/8, $-1
DATA rowmask<>+32(SB)/8, $-1
DATA rowmask<>+40(SB)/8, $-1
DATA rowmask<>+48(SB)/8, $-1
DATA rowmask<>+56(SB)/8, $-1
DATA rowmask<>+64(SB)/8, $-1
DATA rowmask<>+72(SB)/8, $-1
DATA rowmask<>+80(SB)/8, $-1
DATA rowmask<>+88(SB)/8, $-1
DATA rowmask<>+96(SB)/8, $-1
DATA rowmask<>+104(SB)/8, $-1
DATA rowmask<>+112(SB)/8, $-1
DATA rowmask<>+120(SB)/8, $-1
GLOBL rowmask<>(SB), RODATA|NOPTR, $256

// FLAG ORs r−r into Y10: +0 in a lane where r is finite, NaN where it is not.
#define FLAG(r) VSUBPD r, r, r; VORPD r, Y10, Y10

// func rowUpdate(d *float64, n int, b *float64, a *float64, cs int, k int) bool
//
// d[j] = (…((+0 + a[0]·b[j]) + a[cs]·b[n+j]) + …) + a[(k-1)·cs]·b[(k-1)·n+j]
// for j in [0, n), zero terms included; d is written, never read. Blocks of
// 32 columns in eight YMM accumulators from +0, stored once after all k terms
// (eight independent add chains: four would leave a wide row waiting on the
// add's latency), then at most one block of 16 in four, then the last 1–15
// columns in four through VMASKMOVPD lane masks. Every lane is one IEEE
// multiply (a first) and one IEEE add per term, in ascending p — never a
// fused multiply-add, which rounds once where the contract rounds twice
// (ci.sh stage 1 greps the assembler's listing for it). A masked-off lane is
// neither read nor written. The result is true when a stored element is not
// finite (FLAG, then VPTEST); a masked-off lane sums a·(+0), non-finite only
// when some a is, and then so is every stored lane, so it needs no mask.
TEXT ·rowUpdate(SB), NOSPLIT, $0-49
	MOVQ   d+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVQ   b+16(FP), SI
	MOVQ   a+24(FP), R8
	MOVQ   cs+32(FP), R11
	MOVQ   k+40(FP), R10
	SHLQ   $3, R11
	LEAQ   0(CX*8), R12
	VXORPD Y10, Y10, Y10
	SUBQ   $32, CX
	JLT    half

wide:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R8, AX
	MOVQ   SI, DX
	MOVQ   R10, BX
	TESTQ  BX, BX
	JLE    widestore

wideterm:
	VBROADCASTSD (AX), Y8
	VMULPD       0(DX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(DX), Y8, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       64(DX), Y8, Y9
	VADDPD       Y9, Y2, Y2
	VMULPD       96(DX), Y8, Y9
	VADDPD       Y9, Y3, Y3
	VMULPD       128(DX), Y8, Y9
	VADDPD       Y9, Y4, Y4
	VMULPD       160(DX), Y8, Y9
	VADDPD       Y9, Y5, Y5
	VMULPD       192(DX), Y8, Y9
	VADDPD       Y9, Y6, Y6
	VMULPD       224(DX), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         R11, AX
	ADDQ         R12, DX
	DECQ         BX
	JNZ          wideterm

widestore:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	FLAG(Y0)
	FLAG(Y1)
	FLAG(Y2)
	FLAG(Y3)
	FLAG(Y4)
	FLAG(Y5)
	FLAG(Y6)
	FLAG(Y7)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, CX
	JGE     wide

half:
	ADDQ   $16, CX
	JLT    tail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R8, AX
	MOVQ   SI, DX
	MOVQ   R10, BX
	TESTQ  BX, BX
	JLE    halfstore

halfterm:
	VBROADCASTSD (AX), Y4
	VMULPD       0(DX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(DX), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(DX), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(DX), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R11, AX
	ADDQ         R12, DX
	DECQ         BX
	JNZ          halfterm

halfstore:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	FLAG(Y0)
	FLAG(Y1)
	FLAG(Y2)
	FLAG(Y3)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX

tail:
	ADDQ       $16, CX
	JZ         done
	LEAQ       rowmask<>+128(SB), R9
	SHLQ       $3, CX
	SUBQ       CX, R9
	VMOVUPD    0(R9), Y12
	VMOVUPD    32(R9), Y13
	VMOVUPD    64(R9), Y14
	VMOVUPD    96(R9), Y15
	VXORPD     Y0, Y0, Y0
	VXORPD     Y1, Y1, Y1
	VXORPD     Y2, Y2, Y2
	VXORPD     Y3, Y3, Y3
	MOVQ       R8, AX
	MOVQ       SI, DX
	MOVQ       R10, BX
	TESTQ      BX, BX
	JLE        tailstore

tailterm:
	VBROADCASTSD (AX), Y4
	VMASKMOVPD   0(DX), Y12, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMASKMOVPD   32(DX), Y13, Y6
	VMULPD       Y6, Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMASKMOVPD   64(DX), Y14, Y7
	VMULPD       Y7, Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMASKMOVPD   96(DX), Y15, Y8
	VMULPD       Y8, Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R11, AX
	ADDQ         R12, DX
	DECQ         BX
	JNZ          tailterm

tailstore:
	VMASKMOVPD Y0, Y12, 0(DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	VMASKMOVPD Y2, Y14, 64(DI)
	VMASKMOVPD Y3, Y15, 96(DI)
	FLAG(Y0)
	FLAG(Y1)
	FLAG(Y2)
	FLAG(Y3)

done:
	VPTEST     Y10, Y10
	SETNE      ret+48(FP)
	VZEROUPPER
	RET
