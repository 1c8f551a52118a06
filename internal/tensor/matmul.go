package tensor

import "fmt"

// MatMul computes dst = a × b for 2-D tensors a (m×k) and b (k×n), writing
// into dst (m×n). dst must not alias a or b. Every shape runs on the calling
// goroutine through the one row kernel below: each output element is a
// single reduction over every p = 0..k-1 in ascending order, so the result
// depends on the operands alone. Callers that want more than one
// core split work above this call — internal/core trains clients and scores
// evaluation batches in parallel — and a GEMM itself never spawns.
func MatMul(dst, a, b *Tensor) { mulRows("MatMul", dst, a, b, nil) }

// MatMulBias computes dst = a × b + bias, bias (n elements, any shape) added
// to every row of the m×n product: each element is MatMul's reduction, then
// one IEEE add of bias[j], inside the one kernel call. dst must not alias
// a, b or bias.
func MatMulBias(dst, a, b, bias *Tensor) { mulRows("MatMulBias", dst, a, b, bias) }

// mulRows checks the shapes of the named product dst = a × b (+ bias, where
// bias is not nil) and computes it.
func mulRows(op string, dst, a, b, bias *Tensor) {
	mustRank2(op, dst, a, b)
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", op, k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d %d]", op, dst.Shape, m, n))
	}
	var bd []float64
	if bias != nil {
		if bias.Size() != n {
			panic(fmt.Sprintf("tensor: %s bias %v, want %d elements", op, bias.Shape, n))
		}
		bd = bias.Data
	}
	accumRows(dst.Data, a.Data, b.Data, bd, 0, m, k, n, k, 1)
}

// ColSum writes the column sums of the m×n tensor a into dst (n elements,
// any shape): dst[j] = Σ a[i,j] from +0 in ascending i. It is the kernel's
// product 1ᵀ·a, its left operand one 1.0 read at stride 0; 1·x is exact, so
// each element is the plain ascending sum. dst must not alias a.
func ColSum(dst, a *Tensor) {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: ColSum wants a 2-D operand, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	if dst.Size() != n {
		panic(fmt.Sprintf("tensor: ColSum dst %v, want %d elements", dst.Shape, n))
	}
	one := [1]float64{1}
	accumRows(dst.Data, one[:], a.Data, nil, 0, 1, m, n, 0, 0)
}

// mustRank2 panics unless all three operands of the named product are 2-D.
func mustRank2(op string, dst, a, b *Tensor) {
	if len(dst.Shape) != 2 || len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s wants 2-D operands, got dst %v, a %v, b %v", op, dst.Shape, a.Shape, b.Shape))
	}
}

// accumRows is the one GEMM kernel, behind MatMul, MatMulBias and MatMulAT
// (and so MatMulBT) and ColSum. It computes rows [lo, hi) of dst, where row
// i is the sum over p of a[i·rs + p·cs] · (row p of b), plus bias after the
// last term where bias is not nil, so (rs, cs) = (k, 1) reads a as m×k,
// (1, m) reads it as k×m, transposed, and (0, 0) reads one entry for every
// term (ColSum's ones row).
//
// The contract is the textbook reduction, at every shape: each output
// element is (+0 + float64(a₀·b₀) + … + float64(a_{k−1}·b_{k−1})) + bias,
// every term in ascending p, each product rounded before its add. An
// accumulator that starts at +0 never becomes −0, so a ±0 term against a
// finite right entry changes no bit; against an Inf or NaN one it makes the
// element NaN, as 0·Inf is. TestRowKernelsMatchReference pins it.
//
// On amd64 with AVX (hasAVX, read from CPUID at init; nothing a caller can
// set) the whole range is one rowsUpdate call: assembly that reads each
// left row in place and applies all k terms to register accumulators,
// adds the bias, stores, and walks on to the next row. Every other build,
// and k = 0, runs goRows. Both perform the same IEEE multiplies and adds in
// the same order, so they agree in every bit (DESIGN.md §8).
func accumRows(dst, a, b, bias []float64, lo, hi, k, n, rs, cs int) {
	if n == 0 || hi <= lo {
		return // no element to write, and rowsUpdate is handed &dst[lo·n]
	}
	// rowsUpdate reads a, b and bias and writes dst unchecked: every term
	// and every element of every row must be in range.
	if len(dst) < hi*n {
		panic(fmt.Sprintf("tensor: output holds %d elements, want %d×%d", len(dst), hi, n))
	}
	if len(b) < k*n {
		panic(fmt.Sprintf("tensor: right operand holds %d elements, want %d×%d", len(b), k, n))
	}
	if need := (hi-1)*rs + (k-1)*cs + 1; k > 0 && len(a) < need {
		panic(fmt.Sprintf("tensor: left operand holds %d elements, want %d", len(a), need))
	}
	if bias != nil && len(bias) != n {
		panic(fmt.Sprintf("tensor: bias holds %d elements, want %d", len(bias), n))
	}
	if !hasAVX || k == 0 {
		goRows(dst, a, b, bias, lo, hi, k, n, rs, cs)
		return
	}
	var bp *float64
	if bias != nil {
		bp = &bias[0]
	}
	rowsUpdate(&dst[lo*n], n, &b[0], &a[lo*rs], rs, cs, k, hi-lo, bp)
}

// goRows is accumRows' Go loop over rows [lo, hi): every non-AVX build's
// path, and the AVX path's at k = 0, where a may be empty. It applies four
// terms per pass over the output row, each element's adds still in
// ascending p, then the bias.
func goRows(dst, a, b, bias []float64, lo, hi, k, n, rs, cs int) {
	for i := lo; i < hi; i++ {
		drow := dst[i*n : (i+1)*n]
		clear(drow)
		ai, p := i*rs, 0
		for ; p+4 <= k; p += 4 {
			// Re-slice to len(drow) so all four b rows provably hold a full
			// output row: the range index below needs no bounds check.
			b0 := b[p*n:][:len(drow)]
			b1 := b[(p+1)*n:][:len(drow)]
			b2 := b[(p+2)*n:][:len(drow)]
			b3 := b[(p+3)*n:][:len(drow)]
			a0, a1, a2, a3 := a[ai], a[ai+cs], a[ai+2*cs], a[ai+3*cs]
			ai += 4 * cs
			for j, d := range drow {
				d += float64(a0 * b0[j])
				d += float64(a1 * b1[j])
				d += float64(a2 * b2[j])
				d += float64(a3 * b3[j])
				drow[j] = d
			}
		}
		for ; p < k; p++ {
			av := a[ai]
			ai += cs
			for j, bv := range b[p*n:][:len(drow)] {
				drow[j] += float64(av * bv)
			}
		}
		for j, v := range bias {
			drow[j] += v
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
	accumRows(dst.Data, a.Data, b.Data, nil, 0, m, k, n, 1, m)
}

// MatMulBT computes dst = a × bᵀ for a (m×k) and b (n×k), producing m×n. It
// allocates: bᵀ is copied into a fresh k×n tensor and multiplied by MatMul,
// so every output element is the same ascending-p reduction over every
// entry of a's row. A caller that repeats the product keeps its
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
