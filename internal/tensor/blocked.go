package tensor

import (
	"sync"
	"sync/atomic"
)

// Cache-blocked tiled GEMM backing MatMul/MatMulAT/MatMulBT on large dense
// problems.
//
// Layout: the m×n output is cut into gemmMC×gemmNC macro tiles; each tile is
// one dispatch unit (an inline loop when serial, a work-pulling goroutine
// grid when parallel — replacing the old row-chunk fan-out), and inside a
// tile the shared dimension is walked in ascending gemmKC panels. For MatMul
// and MatMulAT the current B panel — and for MatMulAT the transposed A tile —
// is packed contiguously into a pooled per-worker buffer so the 4-row
// micro-kernel streams both operands linearly; MatMulBT needs no packing
// because both operand rows are already contiguous along the shared
// dimension.
//
// Determinism: every output element is still one reduction over p = 0..k-1
// in strictly ascending order. Panels are visited in ascending p and the
// partial sum is spilled to dst between panels; a float64 store/load
// round-trip is exact, so the blocked kernels are bit-for-bit identical to
// the naive row kernels — pinned by the golden Float64bits tests in
// blocked_test.go.

const (
	// gemmMC×gemmNC is the macro-tile shape, one dispatch unit: 64×128
	// output elements (64 KiB) plus a packed 128×128 B panel (128 KiB)
	// stay L2-resident on any plausible core.
	gemmMC = 64
	gemmNC = 128
	// gemmKC is the panel depth along the shared dimension: accumulators
	// run this long between dst spills, and one B panel holds
	// gemmKC×gemmNC packed values.
	gemmKC = 256
	// blockedMinWork is the m·n·k multiply-add count below which tile
	// setup and packing cost more than the cache locality they buy and
	// the naive row kernels win (measured; see BENCHMARKS.md).
	blockedMinWork = 1 << 15
	// gemmPadStride pads the packed panel's row stride away from powers of
	// two: a 128-value (1 KiB) stride maps successive packed rows onto the
	// same handful of L1 sets and the transpose thrashes; one extra cache
	// line of slack spreads them across all sets.
	gemmPadStride = 8
	// blockedSparseCutoff is the sampled exact-zero fraction of the left
	// operand above which MatMul and MatMulAT dispatch prefers the
	// zero-skipping row kernels. The blocked micro-kernel cannot skip
	// zeros — the 4-row unroll shares each b load across rows — and the
	// measured crossover sits between 0% zeros (blocked wins ~1.3×) and
	// 50% zeros (skipping wins ~2.2×), so the cutoff lands below the
	// ~50% sparsity of steady-state ReLU activations, the dominant
	// sparse left operand in training (see BENCHMARKS.md).
	blockedSparseCutoff = 0.3
	// sparseCutoffNever disables the sparsity fallback. MatMulBT uses it:
	// its naive kernel walks whole a-rows per output element, so skipping
	// scattered zeros never recoups the blocked kernel's locality — blocked
	// BT wins even at 90% measured zeros (see BENCHMARKS.md).
	sparseCutoffNever = 2.0
	// zeroFracSamples caps the sparsity census cost per dispatch.
	zeroFracSamples = 512
)

// blockedOff inverts the sense of the toggle so its zero value means
// "blocked GEMM enabled" — no package init needed.
var blockedOff atomic.Bool

// SetBlockedGEMM enables or disables the blocked kernels at runtime. Its
// only callers are the kernel and replay tests, which run both settings to
// prove results are bit-identical either way — it is purely a performance
// switch (what the blocked kernels buy end to end is `go run ./bench`
// workload train-gemm).
func SetBlockedGEMM(on bool) { blockedOff.Store(!on) }

// BlockedGEMM reports whether the blocked kernels are enabled.
func BlockedGEMM() bool { return !blockedOff.Load() }

// useBlocked decides naive-vs-blocked for one matmul call. The choice never
// affects results (both paths are bit-identical), only speed: small problems
// stay on the inline row kernels, and left operands sparser than the
// kernel's cutoff keep the zero-skip fast path. Each kernel passes its own
// cutoff — sparseCutoffNever skips the census entirely.
func useBlocked(m, k, n int, a []float64, sparseCutoff float64) bool {
	if blockedOff.Load() || m*n*k < blockedMinWork || k < 4 || n < 4 {
		return false
	}
	if sparseCutoff >= sparseCutoffNever {
		return true
	}
	return leftZeroFrac(a) < sparseCutoff
}

// leftZeroFrac estimates the exact-zero fraction of the left operand from at
// most zeroFracSamples evenly strided probes — O(1) relative to the O(m·n·k)
// matmul it steers. Deterministic: same data, same stride, same answer.
//
//lint:hotpath
func leftZeroFrac(a []float64) float64 {
	step := len(a) / zeroFracSamples
	if step == 0 {
		step = 1
	}
	zeros, total := 0, 0
	for i := 0; i < len(a); i += step {
		//lint:ignore float-eq sparsity census only picks a kernel; both kernels produce identical bits
		if a[i] == 0 {
			zeros++
		}
		total++
	}
	return float64(zeros) / float64(total)
}

// packBuf is a per-worker packing scratch, pooled so steady-state training
// reuses the same buffers instead of allocating per matmul.
type packBuf struct {
	b []float64 // packed B panel (gemmKC × ≤gemmNC)
	a []float64 // packed transposed A tile for MatMulAT (gemmMC × gemmKC)
}

var packPool = sync.Pool{New: func() any { return new(packBuf) }}

// growB returns the packed-B scratch with room for need values.
//
//lint:hotpath
func (pb *packBuf) growB(need int) []float64 {
	if cap(pb.b) < need {
		pb.b = make([]float64, need)
	}
	return pb.b[:need]
}

// growA returns the packed-A scratch with room for need values.
//
//lint:hotpath
func (pb *packBuf) growA(need int) []float64 {
	if cap(pb.a) < need {
		pb.a = make([]float64, need)
	}
	return pb.a[:need]
}

// blockedLoop runs fn for every macro tile t in [0, ti·tj), either inline or
// across cachedProcs() work-pulling goroutines. Tiles write disjoint dst
// regions and each carries its own fixed reduction order, so schedule —
// serial, parallel, any interleaving — cannot change a single bit.
func blockedLoop(ti, tj, work int, fn func(t int, pb *packBuf)) {
	tiles := ti * tj
	workers := cachedProcs()
	if workers > tiles {
		workers = tiles
	}
	if workers <= 1 || work < parallelThreshold {
		pb := packPool.Get().(*packBuf)
		for t := 0; t < tiles; t++ {
			fn(t, pb)
		}
		packPool.Put(pb)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pb := packPool.Get().(*packBuf)
			for {
				t := int(next.Add(1)) - 1
				if t >= tiles {
					break
				}
				fn(t, pb)
			}
			packPool.Put(pb)
		}()
	}
	wg.Wait()
}

// tileBounds converts a flat tile index into its output-row and output-col
// ranges.
//
//lint:hotpath
func tileBounds(t, tj, m, n int) (i0, i1, j0, j1 int) {
	i0 = (t / tj) * gemmMC
	i1 = min(i0+gemmMC, m)
	j0 = (t % tj) * gemmNC
	j1 = min(j0+gemmNC, n)
	return
}

// blockedMatMul computes dst = a×b (a m×k, b k×n) with the tiled kernels.
func blockedMatMul(dst, a, b []float64, m, k, n int) {
	tj := (n + gemmNC - 1) / gemmNC
	blockedLoop((m+gemmMC-1)/gemmMC, tj, m*n*k, func(t int, pb *packBuf) {
		i0, i1, j0, j1 := tileBounds(t, tj, m, n)
		matmulTile(dst, a, b, k, n, i0, i1, j0, j1, pb)
	})
}

// matmulTile computes the dst[i0:i1, j0:j1] tile of dst = a×b. The B panel
// is packed transposed so the micro-kernel runs in dot form: the reduction
// lives in registers across the whole panel instead of read-modify-writing
// dst once per p (8 dst memory ops per 4 madds in update form, 5 loads and
// no stores in dot form).
//
//lint:hotpath
func matmulTile(dst, a, b []float64, k, n, i0, i1, j0, j1 int, pb *packBuf) {
	jw := j1 - j0
	for i := i0; i < i1; i++ {
		clear(dst[i*n+j0 : i*n+j1])
	}
	bt := pb.growB((gemmKC + gemmPadStride) * jw)
	for p0 := 0; p0 < k; p0 += gemmKC {
		p1 := min(p0+gemmKC, k)
		kw := p1 - p0
		ks := kw + gemmPadStride
		packPanelBT(bt, b, p0, p1, j0, j1, n)
		i := i0
		for ; i+4 <= i1; i += 4 {
			microDotQuad(
				dst[i*n+j0:i*n+j1], dst[(i+1)*n+j0:(i+1)*n+j1],
				dst[(i+2)*n+j0:(i+2)*n+j1], dst[(i+3)*n+j0:(i+3)*n+j1],
				a[i*k+p0:i*k+p1], a[(i+1)*k+p0:(i+1)*k+p1],
				a[(i+2)*k+p0:(i+2)*k+p1], a[(i+3)*k+p0:(i+3)*k+p1],
				bt, jw, kw, ks)
		}
		for ; i < i1; i++ {
			microDotRow(dst[i*n+j0:i*n+j1], a[i*k+p0:i*k+p1], bt, jw, kw, ks)
		}
	}
}

// blockedMatMulAT computes dst = aᵀ×b (a k×m, b k×n) with the tiled kernels.
// The A tile is repacked transposed so the micro-kernel reads it with unit
// stride instead of stride-m column walks.
func blockedMatMulAT(dst, a, b []float64, m, k, n int) {
	tj := (n + gemmNC - 1) / gemmNC
	blockedLoop((m+gemmMC-1)/gemmMC, tj, m*n*k, func(t int, pb *packBuf) {
		i0, i1, j0, j1 := tileBounds(t, tj, m, n)
		matmulATTile(dst, a, b, m, k, n, i0, i1, j0, j1, pb)
	})
}

// matmulATTile computes the dst[i0:i1, j0:j1] tile of dst = aᵀ×b.
//
//lint:hotpath
func matmulATTile(dst, a, b []float64, m, k, n, i0, i1, j0, j1 int, pb *packBuf) {
	jw := j1 - j0
	for i := i0; i < i1; i++ {
		clear(dst[i*n+j0 : i*n+j1])
	}
	bt := pb.growB((gemmKC + gemmPadStride) * jw)
	ap := pb.growA((gemmKC + gemmPadStride) * gemmMC)
	for p0 := 0; p0 < k; p0 += gemmKC {
		p1 := min(p0+gemmKC, k)
		kw := p1 - p0
		ks := kw + gemmPadStride
		packPanelBT(bt, b, p0, p1, j0, j1, n)
		packTileAT(ap, a, m, i0, i1, p0, p1)
		i := i0
		for ; i+4 <= i1; i += 4 {
			o := (i - i0) * ks
			microDotQuad(
				dst[i*n+j0:i*n+j1], dst[(i+1)*n+j0:(i+1)*n+j1],
				dst[(i+2)*n+j0:(i+2)*n+j1], dst[(i+3)*n+j0:(i+3)*n+j1],
				ap[o:o+kw], ap[o+ks:o+ks+kw], ap[o+2*ks:o+2*ks+kw], ap[o+3*ks:o+3*ks+kw],
				bt, jw, kw, ks)
		}
		for ; i < i1; i++ {
			o := (i - i0) * ks
			microDotRow(dst[i*n+j0:i*n+j1], ap[o:o+kw], bt, jw, kw, ks)
		}
	}
}

// blockedMatMulBT computes dst = a×bᵀ (a m×k, b n×k) with the tiled kernels.
// No packing: both operand rows are already contiguous along k, and the
// 4-row dot micro-kernel's independent accumulator chains supply the
// instruction-level parallelism a single dot product lacks.
func blockedMatMulBT(dst, a, b []float64, m, k, n int) {
	tj := (n + gemmNC - 1) / gemmNC
	blockedLoop((m+gemmMC-1)/gemmMC, tj, m*n*k, func(t int, pb *packBuf) {
		i0, i1, j0, j1 := tileBounds(t, tj, m, n)
		matmulBTTile(dst, a, b, k, n, i0, i1, j0, j1)
	})
}

// matmulBTTile computes the dst[i0:i1, j0:j1] tile of dst = a×bᵀ. No
// packing: row j of b already is column j of bᵀ laid out contiguously along
// k, so it feeds microDotQuad directly with row stride k.
//
//lint:hotpath
func matmulBTTile(dst, a, b []float64, k, n, i0, i1, j0, j1 int) {
	jw := j1 - j0
	for i := i0; i < i1; i++ {
		clear(dst[i*n+j0 : i*n+j1])
	}
	for p0 := 0; p0 < k; p0 += gemmKC {
		p1 := min(p0+gemmKC, k)
		kw := p1 - p0
		bt := b[j0*k+p0:]
		i := i0
		for ; i+4 <= i1; i += 4 {
			microDotQuad(
				dst[i*n+j0:i*n+j1], dst[(i+1)*n+j0:(i+1)*n+j1],
				dst[(i+2)*n+j0:(i+2)*n+j1], dst[(i+3)*n+j0:(i+3)*n+j1],
				a[i*k+p0:i*k+p1], a[(i+1)*k+p0:(i+1)*k+p1],
				a[(i+2)*k+p0:(i+2)*k+p1], a[(i+3)*k+p0:(i+3)*k+p1],
				bt, jw, kw, k)
		}
		for ; i < i1; i++ {
			microDotRow(dst[i*n+j0:i*n+j1], a[i*k+p0:i*k+p1], bt, jw, kw, k)
		}
	}
}

// packPanelBT transposes b[p0:p1, j0:j1] into bt so column j of the panel is
// contiguous: bt[(j-j0)·kw + (p-p0)] = b[p·n + j]. Reads stream b row-wise;
// writes revisit the same jw cache lines each p step, so the transpose stays
// L1-resident. Cost is one touch per packed value, amortized over the
// (i1-i0) micro-kernel rows that reuse the panel.
//
//lint:hotpath
func packPanelBT(bt, b []float64, p0, p1, j0, j1, n int) {
	ks := p1 - p0 + gemmPadStride
	for p := p0; p < p1; p++ {
		brow := b[p*n+j0 : p*n+j1]
		for j, bv := range brow {
			bt[j*ks+(p-p0)] = bv
		}
	}
}

// packTileAT copies aᵀ[i0:i1, p0:p1] (i.e. a[p0:p1, i0:i1] transposed) into
// ap row-contiguously, turning the stride-m column reads of matmulATRows into
// one strided pass amortized over the whole panel.
//
//lint:hotpath
func packTileAT(ap, a []float64, m, i0, i1, p0, p1 int) {
	kw := p1 - p0
	ks := kw + gemmPadStride
	for p := p0; p < p1; p++ {
		arow := a[p*m+i0 : p*m+i1]
		for i, av := range arow {
			ap[i*ks+(p-p0)] = av
		}
	}
}

// microDotQuad accumulates one k-panel into four output rows (d0..d3, each
// of length jw) in 4×2 register-blocked dot form: columns are consumed in
// pairs, so the inner loop keeps 8 independent accumulator chains live
// (hiding FP add latency) while loading 6 values per 8 multiply-adds — a is
// reused across the column pair, b across the four rows. bt holds the panel
// columns: column j starts at bt[j·ks] and spans kw values (packed panels
// pass a padded ks to dodge L1 set aliasing; MatMulBT passes b itself with
// ks = k).
//
// Determinism: accumulator s_rc reduces column c over p strictly ascending;
// the partial sum round-trips through dst between panels, which is exact —
// per-element order is identical to the naive kernel's.
//
//lint:hotpath
func microDotQuad(d0, d1, d2, d3, a0, a1, a2, a3, bt []float64, jw, kw, ks int) {
	j := 0
	for ; j+2 <= jw; j += 2 {
		c0 := bt[j*ks : j*ks+kw]
		// Re-slice every operand to len(c0) so the compiler proves the
		// range index is in bounds for all of them and drops the five
		// per-iteration bounds checks from the inner loop.
		c1 := bt[(j+1)*ks : (j+1)*ks+kw][:len(c0)]
		x0, x1, x2, x3 := a0[:len(c0)], a1[:len(c0)], a2[:len(c0)], a3[:len(c0)]
		s00, s01 := d0[j], d0[j+1]
		s10, s11 := d1[j], d1[j+1]
		s20, s21 := d2[j], d2[j+1]
		s30, s31 := d3[j], d3[j+1]
		for p, bv0 := range c0 {
			bv1 := c1[p]
			av0, av1, av2, av3 := x0[p], x1[p], x2[p], x3[p]
			s00 += float64(av0 * bv0)
			s01 += float64(av0 * bv1)
			s10 += float64(av1 * bv0)
			s11 += float64(av1 * bv1)
			s20 += float64(av2 * bv0)
			s21 += float64(av2 * bv1)
			s30 += float64(av3 * bv0)
			s31 += float64(av3 * bv1)
		}
		d0[j], d0[j+1] = s00, s01
		d1[j], d1[j+1] = s10, s11
		d2[j], d2[j+1] = s20, s21
		d3[j], d3[j+1] = s30, s31
	}
	if j < jw {
		c0 := bt[j*ks : j*ks+kw]
		s0, s1, s2, s3 := d0[j], d1[j], d2[j], d3[j]
		for p, bv := range c0 {
			s0 += float64(a0[p] * bv)
			s1 += float64(a1[p] * bv)
			s2 += float64(a2[p] * bv)
			s3 += float64(a3[p] * bv)
		}
		d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
	}
}

// microDotRow is the row-tail kernel: one output row, columns in pairs.
//
//lint:hotpath
func microDotRow(d0, a0, bt []float64, jw, kw, ks int) {
	j := 0
	for ; j+2 <= jw; j += 2 {
		c0 := bt[j*ks : j*ks+kw]
		c1 := bt[(j+1)*ks : (j+1)*ks+kw][:len(c0)]
		x0 := a0[:len(c0)]
		s0, s1 := d0[j], d0[j+1]
		for p, bv0 := range c0 {
			av := x0[p]
			s0 += float64(av * bv0)
			s1 += float64(av * c1[p])
		}
		d0[j], d0[j+1] = s0, s1
	}
	if j < jw {
		c0 := bt[j*ks : j*ks+kw]
		s0 := d0[j]
		for p, bv := range c0 {
			s0 += float64(a0[p] * bv)
		}
		d0[j] = s0
	}
}
