// Package compress implements the update-compression techniques the paper
// discusses as the communication-side alternative for cost reduction
// (Sec. 2.3, refs [26, 27]): top-k sparsification with error feedback, and
// stochastic uniform quantization (QSGD-style). Both operate on update
// deltas and report their wire size, so experiments can trade accuracy
// against bytes alongside the Eq. 5 compute cost.
package compress

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Compressed is an encoded update that knows its wire size.
type Compressed interface {
	// Decode reconstructs a dense vector of the original dimension.
	Decode() []float64
	// Bytes returns the encoded wire size.
	Bytes() int
}

// Compressor encodes update vectors. Implementations may be stateful
// (error feedback); use one instance per client.
type Compressor interface {
	Name() string
	Compress(update []float64) Compressed
}

// ---------------------------------------------------------------- top-k --

// TopK keeps the k largest-magnitude coordinates and accumulates the
// dropped mass into a residual that is added to the next update (error
// feedback), which is what makes aggressive sparsification converge.
type TopK struct {
	// K is the number of coordinates kept per update.
	K        int
	residual []float64
}

// NewTopK returns a top-k compressor keeping k coordinates.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("compress: K must be positive")
	}
	return &TopK{K: k}
}

// Name returns "topk".
func (t *TopK) Name() string { return "topk" }

// Sparse is a sparse-encoded update.
type Sparse struct {
	Dim     int
	Indices []int32
	Values  []float64
}

// Decode scatters the kept coordinates into a dense vector.
func (s Sparse) Decode() []float64 {
	out := make([]float64, s.Dim)
	for i, idx := range s.Indices {
		out[idx] = s.Values[i]
	}
	return out
}

// Bytes is 4 bytes per index + 8 per value.
func (s Sparse) Bytes() int { return 4*len(s.Indices) + 8*len(s.Values) }

// Compress applies error feedback then keeps the top-k coordinates.
func (t *TopK) Compress(update []float64) Compressed {
	n := len(update)
	if t.residual == nil {
		t.residual = make([]float64, n)
	}
	if len(t.residual) != n {
		panic(fmt.Sprintf("compress: dimension changed %d -> %d", len(t.residual), n))
	}
	work := make([]float64, n)
	for i, v := range update {
		work[i] = v + t.residual[i]
	}
	k := t.K
	if k > n {
		k = n
	}
	// Select the k largest |work[i]| indices.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(work[idx[a]]) > math.Abs(work[idx[b]])
	})
	out := Sparse{Dim: n, Indices: make([]int32, k), Values: make([]float64, k)}
	kept := make([]bool, n)
	for i := 0; i < k; i++ {
		j := idx[i]
		out.Indices[i] = int32(j)
		out.Values[i] = work[j]
		kept[j] = true
	}
	for i := range t.residual {
		if kept[i] {
			t.residual[i] = 0
		} else {
			t.residual[i] = work[i]
		}
	}
	return out
}

// ----------------------------------------------------------- quantizer --

// Uniform is a QSGD-style stochastic uniform quantizer: values are scaled
// by the max-norm, mapped to 2^Bits−1 levels with probabilistic rounding
// (unbiased), and shipped as small integers plus one scale.
type Uniform struct {
	// Bits per coordinate (1..16).
	Bits int
	rng  *stats.RNG
}

// NewUniform returns a b-bit stochastic quantizer.
func NewUniform(bits int, seed uint64) *Uniform {
	if bits < 1 || bits > 16 {
		panic("compress: Bits must be in [1, 16]")
	}
	return &Uniform{Bits: bits, rng: stats.NewRNG(seed)}
}

// Name returns "qN" for N bits.
func (u *Uniform) Name() string { return fmt.Sprintf("q%d", u.Bits) }

// Quantized is a uniform-quantized update.
type Quantized struct {
	Dim    int
	Scale  float64
	Bits   int
	Levels []int32 // signed level per coordinate
}

// Decode rescales levels back to floats.
func (q Quantized) Decode() []float64 {
	out := make([]float64, q.Dim)
	lv := int32(1)<<(q.Bits-1) - 1
	if lv == 0 {
		lv = 1
	}
	levels := float64(lv)
	for i, l := range q.Levels {
		out[i] = q.Scale * float64(l) / levels
	}
	return out
}

// Bytes charges ceil(Bits/8) per coordinate plus the 8-byte scale.
func (q Quantized) Bytes() int {
	perCoord := (q.Bits + 7) / 8
	return 8 + perCoord*q.Dim
}

// Compress quantizes with unbiased stochastic rounding.
func (u *Uniform) Compress(update []float64) Compressed {
	n := len(update)
	scale := 0.0
	for _, v := range update {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	out := Quantized{Dim: n, Scale: scale, Bits: u.Bits, Levels: make([]int32, n)}
	//lint:ignore float-eq an all-zero update has exactly zero max magnitude; any nonzero scale quantizes fine
	if scale == 0 {
		return out
	}
	lv := int32(1)<<(u.Bits-1) - 1
	if lv == 0 {
		lv = 1
	}
	levels := float64(lv)
	for i, v := range update {
		x := v / scale * levels // in [-levels, levels]
		lo := math.Floor(x)
		frac := float64(x) - lo
		l := lo
		if u.rng.Float64() < frac {
			l = lo + 1
		}
		out.Levels[i] = int32(l)
	}
	return out
}

// Identity passes updates through unchanged (the no-compression baseline
// with an honest byte count).
type Identity struct{}

// Name returns "none".
func (Identity) Name() string { return "none" }

// DenseUpdate wraps an uncompressed vector.
type DenseUpdate []float64

// Decode returns a copy of the vector.
func (d DenseUpdate) Decode() []float64 { return append([]float64(nil), d...) }

// Bytes is 8 per coordinate.
func (d DenseUpdate) Bytes() int { return 8 * len(d) }

// Compress copies the update.
func (Identity) Compress(update []float64) Compressed {
	return DenseUpdate(append([]float64(nil), update...))
}
