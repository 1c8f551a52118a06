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

// func rowUpdate(d *float64, n int, b *float64, av *float64, off *int, cnt int)
//
// d[j] = (…((d[j] + av[0]·b[off[0]+j]) + av[1]·b[off[1]+j]) + …) + av[cnt-1]·b[off[cnt-1]+j]
// for j in [0, n): blocks of 32 columns in eight YMM accumulators, loaded
// and stored once while every staged term is applied to them (eight
// independent add chains: four would leave a wide row waiting on the add's
// latency), then at most one block of 16 in four, then the last 1–15
// columns in four through VMASKMOVPD lane masks, so a 10-wide row is one
// pass over the terms. Every lane is one IEEE multiply (av first) and one
// IEEE add per term, in ascending-term order, with d as the add's first
// source like the Go loop's ADDSD — never a fused multiply-add, which rounds
// once where the contract rounds twice (ci.sh stage 1 greps the assembler's
// listing for it). A masked-off lane is neither read nor written.
TEXT ·rowUpdate(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ av+24(FP), R8
	MOVQ off+32(FP), R9
	MOVQ cnt+40(FP), R10
	TESTQ R10, R10
	JLE   done
	SUBQ  $32, CX
	JLT   half

wide:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    BX, BX

wideterm:
	VBROADCASTSD (R8)(BX*8), Y8
	MOVQ         (R9)(BX*8), DX
	LEAQ         (SI)(DX*8), DX
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
	INCQ         BX
	CMPQ         BX, R10
	JLT          wideterm

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, CX
	JGE     wide

half:
	ADDQ    $16, CX
	JLT     tail
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    BX, BX

halfterm:
	VBROADCASTSD (R8)(BX*8), Y4
	MOVQ         (R9)(BX*8), DX
	LEAQ         (SI)(DX*8), DX
	VMULPD       0(DX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(DX), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(DX), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(DX), Y4, Y8
	VADDPD       Y8, Y3, Y3
	INCQ         BX
	CMPQ         BX, R10
	JLT          halfterm

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX

tail:
	ADDQ $16, CX
	JZ   done
	LEAQ rowmask<>+128(SB), AX
	SHLQ $3, CX
	SUBQ CX, AX
	VMOVUPD    0(AX), Y12
	VMOVUPD    32(AX), Y13
	VMOVUPD    64(AX), Y14
	VMOVUPD    96(AX), Y15
	VMASKMOVPD 0(DI), Y12, Y0
	VMASKMOVPD 32(DI), Y13, Y1
	VMASKMOVPD 64(DI), Y14, Y2
	VMASKMOVPD 96(DI), Y15, Y3
	XORQ       BX, BX

tailterm:
	VBROADCASTSD (R8)(BX*8), Y4
	MOVQ         (R9)(BX*8), DX
	LEAQ         (SI)(DX*8), DX
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
	INCQ         BX
	CMPQ         BX, R10
	JLT          tailterm

	VMASKMOVPD Y0, Y12, 0(DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	VMASKMOVPD Y2, Y14, 64(DI)
	VMASKMOVPD Y3, Y15, 96(DI)

done:
	VZEROUPPER
	RET
