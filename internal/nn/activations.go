package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	mask []bool

	// out and dgrad are recycled across calls (tensor.Resize).
	out, dgrad *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// keepIf returns v when keep holds and +0 otherwise — the same bits as the
// obvious if/else, selected with an integer mask the compiler turns into a
// conditional move. Whether a pre-activation is positive is a coin flip the
// branch predictor loses about half the time, and on the paper-sized MLP
// those mispredictions, not the pass over the activations, were what ReLU
// cost (EXPERIMENTS.md, PR 16).
func keepIf(v float64, keep bool) float64 {
	var m uint64
	if keep {
		m = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & m)
}

// Forward clamps negatives to zero and records the active mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Resize(r.out, x.Shape...)
	out := r.out
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	od, mask := out.Data[:len(x.Data)], r.mask[:len(x.Data)]
	for i, v := range x.Data {
		mask[i] = v > 0
		od[i] = keepIf(v, v > 0)
	}
	return out
}

// Backward zeroes gradients where the forward input was non-positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dgrad = tensor.Resize(r.dgrad, grad.Shape...)
	out := r.dgrad
	od, mask := out.Data[:len(grad.Data)], r.mask[:len(grad.Data)]
	for i, g := range grad.Data {
		od[i] = keepIf(g, mask[i])
	}
	return out
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Clone returns a fresh ReLU.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// Name returns the layer name.
func (r *ReLU) Name() string { return "relu" }

// Flatten reshapes [batch, ...] to [batch, prod(...)]. It is a no-op for
// already-2-D inputs.
type Flatten struct {
	inShape []int
	// view is the header Forward returns on every call, re-pointed at the
	// new input.
	view *tensor.Tensor
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all trailing dimensions into one.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	batch := x.Shape[0]
	if f.view == nil {
		f.view = &tensor.Tensor{Shape: make([]int, 2)}
	}
	f.view.Shape[0], f.view.Shape[1] = batch, x.Size()/batch
	f.view.Data = x.Data
	return f.view
}

// Backward restores the original shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params returns nil.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Clone returns a fresh Flatten.
func (f *Flatten) Clone() Layer { return &Flatten{} }

// Name returns the layer name.
func (f *Flatten) Name() string { return "flatten" }
