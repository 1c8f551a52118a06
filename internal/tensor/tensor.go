// Package tensor implements the dense numeric arrays underlying the neural
// network substrate: shape-checked element-wise arithmetic, matrix
// multiplication, and the reshaping helpers used by the convolution layers.
// Nothing here starts a goroutine; callers parallelise above it.
//
// Tensors are row-major float64 arrays. The package favours explicit,
// allocation-conscious APIs (dst-style in-place variants) because federated
// simulation multiplies every cost by clients × rounds.
package tensor

import (
	"fmt"

	"repro/internal/stats"
)

// Tensor is a dense row-major array of float64 with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float64, n)}
}

// Resize returns a tensor of the given shape for use as an output buffer.
// When buf has the same rank and its backing array holds the new volume, buf
// itself is reshaped in place and returned, its contents left as they are;
// otherwise (buf nil included) it returns New(shape...). A caller that keeps
// the result and passes it back stops allocating once it has seen its
// largest shape. shape is copied only on the New path, so it never escapes.
func Resize(buf *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if buf == nil || len(buf.Shape) != len(shape) || cap(buf.Data) < n {
		return New(append([]int(nil), shape...)...)
	}
	copy(buf.Shape, shape)
	buf.Data = buf.Data[:n]
	return buf
}

// Grow returns s resliced to n elements, or a new slice of exactly n when
// its backing array is shorter, so the caller must overwrite what it reads.
// It is Resize for slices: a caller that keeps the result stops allocating
// once it has seen its largest n.
func Grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view of the same data with a new shape. The volume must
// match. The returned tensor shares Data with the receiver.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data}
}

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-index (2-D convenience).
func (t *Tensor) At(i, j int) float64 {
	return t.Data[i*t.Shape[1]+j]
}

// Set writes the element at the given 2-D index.
func (t *Tensor) Set(i, j int, v float64) {
	t.Data[i*t.Shape[1]+j] = v
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// RandNormal fills the tensor with N(0, sigma^2) samples from rng.
func (t *Tensor) RandNormal(rng *stats.RNG, sigma float64) {
	for i := range t.Data {
		t.Data[i] = rng.Normal(0, sigma)
	}
}

// Add accumulates o into t element-wise. Shapes must match.
func (t *Tensor) Add(o *Tensor) {
	t.mustMatch(o, "Add")
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by k.
func (t *Tensor) Scale(k float64) {
	ScaleSlice(k, t.Data)
}

// AddScaled accumulates k*o into t: t += k*o.
func (t *Tensor) AddScaled(k float64, o *Tensor) {
	t.mustMatch(o, "AddScaled")
	Axpy(k, o.Data, t.Data)
}

func (t *Tensor) mustMatch(o *Tensor, op string) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.Shape, o.Shape))
	}
}
