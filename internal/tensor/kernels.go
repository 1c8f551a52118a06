package tensor

import "fmt"

// Fused slice kernels for the aggregation and optimizer hot paths. They
// operate on raw []float64 so the federated core can run its weighted
// parameter folds (group aggregation, global aggregation, delta round-trips)
// without wrapping every buffer in a Tensor. All kernels are element-wise —
// four-way unrolling changes instruction scheduling but never the per-element
// floating-point operation order, so results stay bit-for-bit deterministic.

// Axpy computes dst += k·x (the BLAS axpy). Slices must have equal length.
func Axpy(k float64, x, dst []float64) {
	checkLen("Axpy", len(x), len(dst))
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] += float64(k * x[i])
		dst[i+1] += float64(k * x[i+1])
		dst[i+2] += float64(k * x[i+2])
		dst[i+3] += float64(k * x[i+3])
	}
	for ; i < len(dst); i++ {
		dst[i] += float64(k * x[i])
	}
}

// ScaleInto computes dst = k·x, overwriting dst.
func ScaleInto(k float64, x, dst []float64) {
	checkLen("ScaleInto", len(x), len(dst))
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = k * x[i]
		dst[i+1] = k * x[i+1]
		dst[i+2] = k * x[i+2]
		dst[i+3] = k * x[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = k * x[i]
	}
}

// AddInto computes dst = a + b, the plain pairwise sum of the aggregation
// tree's upper levels (dst may alias a).
func AddInto(a, b, dst []float64) {
	checkLen("AddInto", len(a), len(dst))
	checkLen("AddInto", len(b), len(dst))
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = a[i] + b[i]
		dst[i+1] = a[i+1] + b[i+1]
		dst[i+2] = a[i+2] + b[i+2]
		dst[i+3] = a[i+3] + b[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// AxpbyInto computes dst = a·x + b·y in one fused pass — the leaf kernel of
// the aggregation tree reduction, folding two weighted client updates without
// an intermediate scaled copy. dst may alias x or y. Per element the
// operation order is fixed (a·x, then b·y, then one add), so results are
// deterministic regardless of call site.
func AxpbyInto(a float64, x []float64, b float64, y, dst []float64) {
	checkLen("AxpbyInto", len(x), len(dst))
	checkLen("AxpbyInto", len(y), len(dst))
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = float64(a*x[i]) + float64(b*y[i])
		dst[i+1] = float64(a*x[i+1]) + float64(b*y[i+1])
		dst[i+2] = float64(a*x[i+2]) + float64(b*y[i+2])
		dst[i+3] = float64(a*x[i+3]) + float64(b*y[i+3])
	}
	for ; i < len(dst); i++ {
		dst[i] = float64(a*x[i]) + float64(b*y[i])
	}
}

// ScaleSlice computes x *= k in place.
func ScaleSlice(k float64, x []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x[i] *= k
		x[i+1] *= k
		x[i+2] *= k
		x[i+3] *= k
	}
	for ; i < len(x); i++ {
		x[i] *= k
	}
}

func checkLen(op string, n, want int) {
	if n != want {
		panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, n, want))
	}
}
