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

// The pair path's steps for one vector of both rows at byte offset off of
// the row: a full vector reads b and the bias as memory operands, the last
// (masked) one loads each through the lane mask in Y11 once for both rows.
// Row 0's accumulator is r0, broadcast Y8; row 1's is r1, broadcast Y9.
#define PFULL(off, r0, r1) VMULPD off(DX), Y8, Y15; VADDPD Y15, r0, r0; VMULPD off(DX), Y9, Y15; VADDPD Y15, r1, r1
#define PMASK(off, r0, r1) VMASKMOVPD off(DX), Y11, Y14; VMULPD Y14, Y8, Y15; VADDPD Y15, r0, r0; VMULPD Y14, Y9, Y15; VADDPD Y15, r1, r1
#define BFULL(off, r0, r1) VADDPD off(R10), r0, r0; VADDPD off(R10), r1, r1
#define BMASK(off, r0, r1) VMASKMOVPD off(R10), Y11, Y14; VADDPD Y14, r0, r0; VADDPD Y14, r1, r1
#define SFULL(off, r0, r1) VMOVUPD r0, off(DI); VMOVUPD r1, off(DI)(R12*1)
#define SMASK(off, r0, r1) VMASKMOVPD r0, Y11, off(DI); VMASKMOVPD r1, Y11, off(DI)(R12*1)

// PSTART opens a pair: both rows' accumulators at +0, AX at row 0's left
// row (row 1's is CX bytes on), DX at b, BX the term count; no term jumps
// to store.
#define PSTART(store) VXORPD Y0, Y0, Y0; VXORPD Y1, Y1, Y1; VXORPD Y2, Y2, Y2; VXORPD Y3, Y3, Y3; VXORPD Y4, Y4, Y4; VXORPD Y5, Y5, Y5; VXORPD Y6, Y6, Y6; VXORPD Y7, Y7, Y7; MOVQ R8, AX; MOVQ SI, DX; MOVQ k+48(FP), BX; TESTQ BX, BX; JLE store

// PTERM broadcasts both rows' left entries of one term (the loop body's
// head); PNEXT steps to the next term and loops.
#define PTERM VBROADCASTSD (AX), Y8; VBROADCASTSD (AX)(CX*1), Y9
#define PNEXT(loop) ADDQ R11, AX; ADDQ R12, DX; DECQ BX; JNZ loop

// PEND closes a stored pair: DI and R8 step two rows on, R13 two rows
// down; then the next pair.
#define PEND(next) LEAQ (DI)(R12*2), DI; LEAQ (R8)(CX*2), R8; SUBQ $2, R13; JMP next

// func rowsUpdate(d *float64, n int, b *float64, a *float64, rs int, cs int, k int, rows int, bias *float64)
//
// For each of rows output rows i, n contiguous columns at d + i·n:
// d[i·n+j] = ((…((+0 + a[i·rs]·b[j]) + a[i·rs+cs]·b[n+j]) + …) +
// a[i·rs+(k-1)·cs]·b[(k-1)·n+j]) + bias[j], zero terms included, the bias
// add only where bias is not nil; d is written, never read. n = 0 writes
// nothing.
//
// A row of n ≥ 16 is blocks of 32 columns in eight YMM accumulators from +0,
// stored once after all k terms (eight independent add chains: four would
// leave a wide row waiting on the add's latency), then at most one block of
// 16 in four, then the last 1–15 columns in four through VMASKMOVPD lane
// masks. A product with n < 16 takes its rows two at a time (the pair path):
// ⌈n/4⌉ vectors per row, the first ⌈n/4⌉−1 full, the last through one lane
// mask; the two rows share each masked b and bias load, and a vector that
// is wholly masked off is not computed. An odd last row takes
// the single-row path. Every lane is one IEEE multiply (a first) and one
// IEEE add per term, in ascending p, with the accumulator as the add's first
// source, then one IEEE add of the bias — never a fused multiply-add, which
// rounds once where the contract rounds twice (ci.sh's build check greps
// the assembler's listing for it). A masked-off lane is neither read nor
// written.
//
// Registers: DI the current output row, SI b, R8 the current left row,
// R10 the bias (0 if nil), R11 cs·8, R12 n·8, R13 the rows left (the
// current one included); the single-row path walks its columns with R9 (byte
// offset) and CX (columns left), the pair path holds rs·8 in CX.
TEXT ·rowsUpdate(SB), NOSPLIT, $0-72
	PCALIGN $64
	MOVQ  d+0(FP), DI
	MOVQ  b+16(FP), SI
	MOVQ  a+24(FP), R8
	MOVQ  cs+40(FP), R11
	SHLQ  $3, R11
	MOVQ  n+8(FP), CX
	LEAQ  0(CX*8), R12
	MOVQ  rows+56(FP), R13
	MOVQ  bias+64(FP), R10
	TESTQ CX, CX
	JZ    done
	CMPQ  CX, $16
	JGE   row

	// The pair path: Y11 is the last vector's mask, its r = ((n−1) mod 4)+1
	// lanes on, at rowmask<>+128−8r.
	LEAQ    -1(CX), AX
	ANDQ    $3, AX
	SHLQ    $3, AX
	LEAQ    rowmask<>+120(SB), DX
	SUBQ    AX, DX
	VMOVUPD 0(DX), Y11
	MOVQ    CX, AX
	MOVQ    rs+32(FP), CX
	SHLQ    $3, CX
	CMPQ    AX, $4
	JLE     pair1
	CMPQ    AX, $8
	JLE     pair2
	CMPQ    AX, $12
	JLE     pair3

pair4:
	CMPQ   R13, $2
	JLT    row
	PSTART(pair4store)

pair4term:
	PTERM
	PFULL(0, Y0, Y4)
	PFULL(32, Y1, Y5)
	PFULL(64, Y2, Y6)
	PMASK(96, Y3, Y7)
	PNEXT(pair4term)

pair4store:
	TESTQ R10, R10
	JZ    pair4nobias
	BFULL(0, Y0, Y4)
	BFULL(32, Y1, Y5)
	BFULL(64, Y2, Y6)
	BMASK(96, Y3, Y7)

pair4nobias:
	SFULL(0, Y0, Y4)
	SFULL(32, Y1, Y5)
	SFULL(64, Y2, Y6)
	SMASK(96, Y3, Y7)
	PEND(pair4)

pair3:
	CMPQ   R13, $2
	JLT    row
	PSTART(pair3store)

pair3term:
	PTERM
	PFULL(0, Y0, Y4)
	PFULL(32, Y1, Y5)
	PMASK(64, Y2, Y6)
	PNEXT(pair3term)

pair3store:
	TESTQ R10, R10
	JZ    pair3nobias
	BFULL(0, Y0, Y4)
	BFULL(32, Y1, Y5)
	BMASK(64, Y2, Y6)

pair3nobias:
	SFULL(0, Y0, Y4)
	SFULL(32, Y1, Y5)
	SMASK(64, Y2, Y6)
	PEND(pair3)

pair2:
	CMPQ   R13, $2
	JLT    row
	PSTART(pair2store)

pair2term:
	PTERM
	PFULL(0, Y0, Y4)
	PMASK(32, Y1, Y5)
	PNEXT(pair2term)

pair2store:
	TESTQ R10, R10
	JZ    pair2nobias
	BFULL(0, Y0, Y4)
	BMASK(32, Y1, Y5)

pair2nobias:
	SFULL(0, Y0, Y4)
	SMASK(32, Y1, Y5)
	PEND(pair2)

pair1:
	CMPQ   R13, $2
	JLT    row
	PSTART(pair1store)

pair1term:
	PTERM
	PMASK(0, Y0, Y4)
	PNEXT(pair1term)

pair1store:
	TESTQ R10, R10
	JZ    pair1nobias
	BMASK(0, Y0, Y4)

pair1nobias:
	SMASK(0, Y0, Y4)
	PEND(pair1)

	// The single-row path: every row of n ≥ 16, and an odd last row of n < 16.
row:
	TESTQ  R13, R13
	JLE    done
	XORQ   R9, R9
	MOVQ   n+8(FP), CX
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
	LEAQ   0(SI)(R9*1), DX
	MOVQ   k+48(FP), BX
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
	TESTQ  R10, R10
	JZ     widenobias
	VADDPD 0(R10)(R9*1), Y0, Y0
	VADDPD 32(R10)(R9*1), Y1, Y1
	VADDPD 64(R10)(R9*1), Y2, Y2
	VADDPD 96(R10)(R9*1), Y3, Y3
	VADDPD 128(R10)(R9*1), Y4, Y4
	VADDPD 160(R10)(R9*1), Y5, Y5
	VADDPD 192(R10)(R9*1), Y6, Y6
	VADDPD 224(R10)(R9*1), Y7, Y7

widenobias:
	VMOVUPD Y0, 0(DI)(R9*1)
	VMOVUPD Y1, 32(DI)(R9*1)
	VMOVUPD Y2, 64(DI)(R9*1)
	VMOVUPD Y3, 96(DI)(R9*1)
	VMOVUPD Y4, 128(DI)(R9*1)
	VMOVUPD Y5, 160(DI)(R9*1)
	VMOVUPD Y6, 192(DI)(R9*1)
	VMOVUPD Y7, 224(DI)(R9*1)
	ADDQ    $256, R9
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
	LEAQ   0(SI)(R9*1), DX
	MOVQ   k+48(FP), BX
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
	TESTQ  R10, R10
	JZ     halfnobias
	VADDPD 0(R10)(R9*1), Y0, Y0
	VADDPD 32(R10)(R9*1), Y1, Y1
	VADDPD 64(R10)(R9*1), Y2, Y2
	VADDPD 96(R10)(R9*1), Y3, Y3

halfnobias:
	VMOVUPD Y0, 0(DI)(R9*1)
	VMOVUPD Y1, 32(DI)(R9*1)
	VMOVUPD Y2, 64(DI)(R9*1)
	VMOVUPD Y3, 96(DI)(R9*1)
	ADDQ    $128, R9
	SUBQ    $16, CX

tail:
	ADDQ       $16, CX
	JZ         rowdone
	LEAQ       rowmask<>+128(SB), AX
	SHLQ       $3, CX
	SUBQ       CX, AX
	VMOVUPD    0(AX), Y12
	VMOVUPD    32(AX), Y13
	VMOVUPD    64(AX), Y14
	VMOVUPD    96(AX), Y15
	VXORPD     Y0, Y0, Y0
	VXORPD     Y1, Y1, Y1
	VXORPD     Y2, Y2, Y2
	VXORPD     Y3, Y3, Y3
	MOVQ       R8, AX
	LEAQ       0(SI)(R9*1), DX
	MOVQ       k+48(FP), BX
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
	TESTQ      R10, R10
	JZ         tailnobias
	VMASKMOVPD 0(R10)(R9*1), Y12, Y5
	VADDPD     Y5, Y0, Y0
	VMASKMOVPD 32(R10)(R9*1), Y13, Y6
	VADDPD     Y6, Y1, Y1
	VMASKMOVPD 64(R10)(R9*1), Y14, Y7
	VADDPD     Y7, Y2, Y2
	VMASKMOVPD 96(R10)(R9*1), Y15, Y8
	VADDPD     Y8, Y3, Y3

tailnobias:
	VMASKMOVPD Y0, Y12, 0(DI)(R9*1)
	VMASKMOVPD Y1, Y13, 32(DI)(R9*1)
	VMASKMOVPD Y2, Y14, 64(DI)(R9*1)
	VMASKMOVPD Y3, Y15, 96(DI)(R9*1)

rowdone:
	ADDQ R12, DI
	MOVQ rs+32(FP), AX
	SHLQ $3, AX
	ADDQ AX, R8
	DECQ R13
	JMP  row

done:
	VZEROUPPER
	RET
