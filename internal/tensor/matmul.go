package tensor

import "fmt"

// MatMul computes dst = a × b for 2-D tensors a (m×k) and b (k×n), writing
// into dst (m×n). dst must not alias a or b. Every shape runs on the calling
// goroutine through the one zero-skipping row kernel below: each output
// element is a single reduction over p = 0..k-1 in ascending order, so the
// result depends on the operands alone. Callers that want more than one
// core split work above this call — internal/core trains clients and scores
// evaluation batches in parallel — and a GEMM itself never spawns.
func MatMul(dst, a, b *Tensor) {
	mustRank2("MatMul", dst, a, b)
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul dst %v, want [%d %d]", dst.Shape, m, n))
	}
	accumRows(dst.Data, a.Data, b.Data, 0, m, k, n, k, 1)
}

// mustRank2 panics unless all three operands of the named product are 2-D.
func mustRank2(op string, dst, a, b *Tensor) {
	if len(dst.Shape) != 2 || len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s wants 2-D operands, got dst %v, a %v, b %v", op, dst.Shape, a.Shape, b.Shape))
	}
}

// The row kernels below skip every exact-zero (±0) entry of the left operand.
// Against a finite right operand that changes no bit: an accumulator that
// starts at +0 can never become −0, so the skipped ±0 term would have been
// absorbed. Against an Inf or NaN right entry it is the semantics, not an
// optimisation: the skipped 0·Inf / 0·NaN would have been NaN, and a model
// whose weights have diverged keeps whatever these kernels made of it. So
// the contract is the reduction itself — each output element is the sum, in
// ascending p from +0, of float64(a·b) over the non-zero a — and it holds at
// every shape, because no other kernel exists for a large or dense problem
// to be routed to. TestRowKernelsMatchReference pins it, skip rule included.

// stage is the capacity of accumRows' staging area, a power of two: 512 bytes
// of stack, and the paper-sized rows (k <= 32) compress in one chunk.
const stage = 32

// accumRows is the one GEMM kernel, behind MatMul and MatMulAT (and so
// MatMulBT). It computes rows [lo, hi) of dst, where row i is the sum over p
// of a[i·rs + p·cs] · (row p of b), so (rs, cs) = (k, 1) reads a as m×k and
// (1, m) reads it as k×m, transposed. Each row is two passes. The compress
// pass walks p ascending and writes every (a entry, offset of b's row p) to
// the next staging slot, zero or not, advancing the slot count by v != 0 as
// an integer: no branch tests the loaded value, which on a post-ReLU operand
// is a coin flip no predictor wins. The update pass is count-driven and
// applies every staged entry to the output row, in staging order, before the
// next chunk is compressed; a row longer than the staging is taken in chunks
// of up to stage non-zero entries, so the per-element order of additions is
// the plain p loop's at every k.
//
// The update has two homes and one meaning. On amd64 with AVX (hasAVX, read
// from CPUID at init; nothing a caller can set) it is rowUpdate, assembly
// that holds 32 columns (then 16, then a masked tail) in registers across
// all the staged terms with one VMULPD and one VADDPD per term per four
// columns; everywhere else it is
// the Go loop below, four terms per pass over the row. Each lane performs
// exactly the IEEE multiply and the IEEE add the Go loop performs, in the
// same term order for every output element, so the two agree in every bit
// (DESIGN.md §8); the Go loop is the oracle, and TestRowKernelsMatchReference
// runs both.
func accumRows(dst, a, b []float64, lo, hi, k, n, rs, cs int) {
	if n == 0 {
		return // no column to write, and rowUpdate is handed &drow[0]
	}
	// rowUpdate reads b[off+j] unchecked: every row p < k must be in range.
	if len(b) < k*n {
		panic(fmt.Sprintf("tensor: right operand holds %d elements, want %d×%d", len(b), k, n))
	}
	var av [stage]float64
	var off [stage]int
	for i := lo; i < hi; i++ {
		drow := dst[i*n : (i+1)*n]
		clear(drow)
		cnt, ai, bo := 0, i*rs, 0
		for p := 0; p < k; {
			// Compress as many entries as there are free slots: cnt stays below
			// stage at every store, and the mask only tells the compiler so.
			for end := min(k, p+stage-cnt); p < end; p++ {
				v := a[ai]
				av[cnt&(stage-1)], off[cnt&(stage-1)] = v, bo
				ai += cs
				bo += n
				nz := 0
				//lint:ignore float-eq zero skip is part of the kernel contract (see above)
				if v != 0 {
					nz = 1
				}
				cnt += nz
			}
			if cnt < stage && p < k {
				continue // free slots left and entries to fill them: keep compressing
			}
			if hasAVX {
				rowUpdate(&drow[0], n, &b[0], &av[0], &off[0], cnt)
				cnt = 0
				continue
			}
			q := 0
			for ; q+4 <= cnt; q += 4 {
				// Re-slice to len(drow) so all four b rows provably hold a full
				// output row: the range index below needs no bounds check.
				b0 := b[off[q]:][:len(drow)]
				b1 := b[off[q+1]:][:len(drow)]
				b2 := b[off[q+2]:][:len(drow)]
				b3 := b[off[q+3]:][:len(drow)]
				a0, a1, a2, a3 := av[q], av[q+1], av[q+2], av[q+3]
				for j, d := range drow {
					d += float64(a0 * b0[j])
					d += float64(a1 * b1[j])
					d += float64(a2 * b2[j])
					d += float64(a3 * b3[j])
					drow[j] = d
				}
			}
			for ; q < cnt; q++ {
				brow := b[off[q]:][:len(drow)]
				for j, bv := range brow {
					drow[j] += float64(av[q] * bv)
				}
			}
			cnt = 0
		}
	}
}

// MatMulAT computes dst = aᵀ × b for a (k×m) and b (k×n), producing m×n.
// Used for weight gradients: dW = Xᵀ·dY.
func MatMulAT(dst, a, b *Tensor) {
	mustRank2("MatMulAT", dst, a, b)
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulAT inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAT dst %v, want [%d %d]", dst.Shape, m, n))
	}
	accumRows(dst.Data, a.Data, b.Data, 0, m, k, n, 1, m)
}

// MatMulBT computes dst = a × bᵀ for a (m×k) and b (n×k), producing m×n. It
// allocates: bᵀ is copied into a fresh k×n tensor and multiplied by MatMul,
// so every output element is the same ascending-p reduction over the
// non-zero entries of a's row. A caller that repeats the product keeps its
// own transpose and calls TransposeInto and MatMul, as nn's layers do.
func MatMulBT(dst, a, b *Tensor) {
	mustRank2("MatMulBT", dst, a, b)
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulBT inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulBT dst %v, want [%d %d]", dst.Shape, m, n))
	}
	bt := FromSlice(make([]float64, k*n), k, n)
	TransposeInto(bt, b)
	MatMul(dst, a, bt)
}

// TransposeInto writes srcᵀ into dst: src is r×c, dst c×r. It allocates
// nothing, and dst must not alias src.
func TransposeInto(dst, src *Tensor) {
	if len(dst.Shape) != 2 || len(src.Shape) != 2 {
		panic(fmt.Sprintf("tensor: TransposeInto wants 2-D operands, got dst %v, src %v", dst.Shape, src.Shape))
	}
	r, c := src.Shape[0], src.Shape[1]
	if dst.Shape[0] != c || dst.Shape[1] != r {
		panic(fmt.Sprintf("tensor: TransposeInto dst %v, want [%d %d]", dst.Shape, c, r))
	}
	for i := 0; i < r; i++ {
		for j, v := range src.Data[i*c : (i+1)*c] {
			dst.Data[j*r+i] = v
		}
	}
}
