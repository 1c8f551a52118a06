package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the approximate number of multiply-adds below which a
// matmul runs single-threaded; goroutine fan-out costs more than it saves on
// tiny matrices.
const parallelThreshold = 1 << 16

// procs caches the effective worker count for the kernel dispatch.
// runtime.GOMAXPROCS(0) takes the scheduler lock on every call, which is
// real contention when many workers dispatch matmuls concurrently — and pure
// waste on the MaxParallel=1 serial path, which used to consult the runtime
// once per matmul. The cache is refreshed lazily on first use and by
// SyncProcs.
var procs atomic.Int32

// SyncProcs re-reads the effective worker count — min(GOMAXPROCS, NumCPU) —
// into the dispatch cache and returns it. GOMAXPROCS above the physical core
// count is pure oversubscription for compute-bound kernels: the goroutine
// fan-out adds handoffs without adding compute, and the bench grid measured
// a medium-scale training round at 0.60× the serial baseline with
// GOMAXPROCS=8 on one core before this cap. Call sites that change
// GOMAXPROCS and then expect the kernels to notice (the training engine at
// setup, benchmarks, replay tests) call this once at the boundary; the hot
// path itself only ever loads the atomic. A stale cache can only mis-pick
// the serial/parallel path, never change results — every path is
// bit-identical.
func SyncProcs() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	procs.Store(int32(n))
	return n
}

// Procs returns the cached effective worker count, syncing on first use.
// Other packages size their compute fan-out (parallel evaluation, engine
// defaults) from this so the whole process shares one oversubscription
// policy.
func Procs() int { return cachedProcs() }

// cachedProcs returns the cached effective worker count, syncing on first
// use.
func cachedProcs() int {
	p := procs.Load()
	if p == 0 {
		return SyncProcs()
	}
	return int(p)
}

// serialRows reports whether a rows×(work) matmul should run inline. Callers
// dispatch to the named row kernels directly in that case, so the hot path
// of small matrices never materializes a closure — a per-call heap
// allocation that would otherwise defeat the training loop's zero-alloc
// steady state. The cheap size checks run first; the parallelism probe is a
// cached atomic load, so no path touches the runtime.
func serialRows(rows, work int) bool {
	return work < parallelThreshold || rows <= 1 || cachedProcs() <= 1
}

// MatMul computes dst = a × b for 2-D tensors a (m×k) and b (k×n), writing
// into dst (m×n). dst must not alias a or b. Large dense problems run on the
// cache-blocked tiled kernels (see blocked.go), fanned out across 2-D tiles;
// small or very sparse ones stay on the zero-skipping row kernels. Each
// output element is a sequentially-ordered reduction over p = 0..k-1 on
// every path, so results are bit-for-bit identical regardless of kernel
// choice or parallelism.
func MatMul(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul dst %v, want [%d %d]", dst.Shape, m, n))
	}
	if useBlocked(m, k, n, a.Data, blockedSparseCutoff) {
		blockedMatMul(dst.Data, a.Data, b.Data, m, k, n)
		return
	}
	if serialRows(m, m*n*k) {
		matmulRows(dst.Data, a.Data, b.Data, 0, m, k, n)
		return
	}
	parallelRows(m, func(lo, hi int) {
		matmulRows(dst.Data, a.Data, b.Data, lo, hi, k, n)
	})
}

// The row kernels below skip every exact-zero (±0) entry of the left operand.
// Against a finite right operand that changes no bit: an accumulator that
// starts at +0 can never become −0, so the skipped ±0 term would have been
// absorbed. Against an Inf or NaN right entry it is the semantics, not an
// optimisation: the skipped 0·Inf / 0·NaN would have been NaN, and a model
// whose weights have diverged keeps whatever these kernels made of it. So
// the contract is the reduction itself — each output element is the sum, in
// ascending p from +0, of float64(a·b) over the non-zero a — and the blocked
// kernels, which skip nothing, agree with it bit for bit on finite operands
// only. TestRowKernelsMatchReference pins it, skip rule included.

// matmulRows computes rows [lo, hi) of dst = a×b (a m×k, b k×n).
//
//lint:hotpath
func matmulRows(dst, a, b []float64, lo, hi, k, n int) {
	accumRows(dst, a, b, lo, hi, k, n, k, 1)
}

// accumRows is the kernel behind matmulRows and matmulATRows: row i of dst
// is the sum over p of a[i·rs + p·cs] · (row p of b), so (rs, cs) = (k, 1)
// reads a as m×k and (1, m) reads it as k×m, transposed. Non-zero a entries
// are gathered four at a time in ascending p and applied in one pass over
// the output row, which then lives in a register across the four updates
// instead of being loaded and stored once per p; the per-element order of
// additions is the plain p loop's.
//
//lint:hotpath
func accumRows(dst, a, b []float64, lo, hi, k, n, rs, cs int) {
	for i := lo; i < hi; i++ {
		drow := dst[i*n : (i+1)*n]
		clear(drow)
		var av [4]float64
		var off [4]int
		cnt := 0
		ai := i * rs
		for p := 0; p < k; p++ {
			v := a[ai]
			ai += cs
			//lint:ignore float-eq zero skip is part of the kernel contract (see above): same entries skipped on every path
			if v == 0 {
				continue
			}
			av[cnt], off[cnt] = v, p*n
			cnt++
			if cnt < 4 {
				continue
			}
			cnt = 0
			// Re-slice to len(drow) so the range index is provably in
			// bounds for all four b rows.
			b0 := b[off[0]:][:len(drow)]
			b1 := b[off[1]:][:len(drow)]
			b2 := b[off[2]:][:len(drow)]
			b3 := b[off[3]:][:len(drow)]
			a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
			for j, d := range drow {
				d += float64(a0 * b0[j])
				d += float64(a1 * b1[j])
				d += float64(a2 * b2[j])
				d += float64(a3 * b3[j])
				drow[j] = d
			}
		}
		for q := 0; q < cnt; q++ {
			brow := b[off[q]:][:len(drow)]
			for j, bv := range brow {
				drow[j] += float64(av[q] * bv)
			}
		}
	}
}

// MatMulAT computes dst = aᵀ × b for a (k×m) and b (k×n), producing m×n.
// Used for weight gradients: dW = Xᵀ·dY.
func MatMulAT(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulAT inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAT dst %v, want [%d %d]", dst.Shape, m, n))
	}
	if useBlocked(m, k, n, a.Data, blockedSparseCutoff) {
		blockedMatMulAT(dst.Data, a.Data, b.Data, m, k, n)
		return
	}
	if serialRows(m, m*n*k) {
		matmulATRows(dst.Data, a.Data, b.Data, 0, m, k, m, n)
		return
	}
	parallelRows(m, func(lo, hi int) {
		matmulATRows(dst.Data, a.Data, b.Data, lo, hi, k, m, n)
	})
}

// matmulATRows computes rows [lo, hi) of dst = aᵀ×b (a k×m, b k×n).
//
//lint:hotpath
func matmulATRows(dst, a, b []float64, lo, hi, k, m, n int) {
	accumRows(dst, a, b, lo, hi, k, n, 1, m)
}

// MatMulBT computes dst = a × bᵀ for a (m×k) and b (n×k), producing m×n.
// Used for input gradients: dX = dY·Wᵀ.
func MatMulBT(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulBT inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulBT dst %v, want [%d %d]", dst.Shape, m, n))
	}
	if useBlocked(m, k, n, a.Data, sparseCutoffNever) {
		blockedMatMulBT(dst.Data, a.Data, b.Data, m, k, n)
		return
	}
	if serialRows(m, m*n*k) {
		matmulBTRows(dst.Data, a.Data, b.Data, 0, m, k, n)
		return
	}
	parallelRows(m, func(lo, hi int) {
		matmulBTRows(dst.Data, a.Data, b.Data, lo, hi, k, n)
	})
}

// matmulBTRows computes rows [lo, hi) of dst = a×bᵀ (a m×k, b n×k). Both
// operands are contiguous along p, so this is the dot form: four output
// columns share one walk of the a row — one load and one zero test per four
// multiply-adds, and four independent accumulator chains where a single dot
// product has one — each still a strictly ascending-p reduction.
//
//lint:hotpath
func matmulBTRows(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k:][:len(arow)]
			b1 := b[(j+1)*k:][:len(arow)]
			b2 := b[(j+2)*k:][:len(arow)]
			b3 := b[(j+3)*k:][:len(arow)]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				//lint:ignore float-eq zero skip is part of the kernel contract (see matmulRows): same entries skipped on every path
				if av == 0 {
					continue
				}
				s0 += float64(av * b0[p])
				s1 += float64(av * b1[p])
				s2 += float64(av * b2[p])
				s3 += float64(av * b3[p])
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k:][:len(arow)]
			s := 0.0
			for p, av := range arow {
				//lint:ignore float-eq zero skip is part of the kernel contract (see matmulRows): same entries skipped on every path
				if av == 0 {
					continue
				}
				s += float64(av * brow[p])
			}
			drow[j] = s
		}
	}
}

// parallelRows partitions [0, rows) across the cached GOMAXPROCS workers.
// Callers have already decided against the inline path via serialRows. It
// remains the fan-out for mid-sized problems when blocking is disabled; the
// blocked path uses 2-D tile dispatch instead (see blockedLoop).
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := cachedProcs()
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= rows {
			break
		}
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
