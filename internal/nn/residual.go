package nn

import (
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Residual is a basic pre-classifier residual block:
//
//	y = ReLU( conv2(ReLU(conv1(x))) + skip(x) )
//
// where skip is the identity when input and output channels match, and a
// 1×1 convolution otherwise. This is the building block of the "3-block
// ResNet" the paper trains on CIFAR-10.
type Residual struct {
	Conv1, Conv2 *Conv2D
	Proj         *Conv2D // nil for identity skip
	relu1, relu2 *ReLU
}

// NewResidual builds a residual block mapping inC to outC channels with 3×3
// kernels and same-padding.
func NewResidual(inC, outC int, rng *stats.RNG) *Residual {
	r := &Residual{
		Conv1: NewConv2D(inC, outC, 3, 3, 1, 1, rng),
		Conv2: NewConv2D(outC, outC, 3, 3, 1, 1, rng),
		relu1: NewReLU(),
		relu2: NewReLU(),
	}
	if inC != outC {
		r.Proj = NewConv2D(inC, outC, 1, 1, 1, 0, rng)
	}
	return r
}

// Forward runs the block.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := r.relu1.Forward(r.Conv1.Forward(x, train), train)
	y := r.Conv2.Forward(h, train)
	var skip *tensor.Tensor
	if r.Proj != nil {
		skip = r.Proj.Forward(x, train)
	} else {
		skip = x
	}
	y.Add(skip)
	return r.relu2.Forward(y, train)
}

// Backward propagates through both the residual and skip paths.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dy := r.relu2.Backward(grad)
	dh := r.Conv2.Backward(dy)
	dx := r.Conv1.Backward(r.relu1.Backward(dh))
	if r.Proj != nil {
		dx.Add(r.Proj.Backward(dy))
	} else {
		dx.Add(dy)
	}
	return dx
}

// Params returns the parameters of all inner convolutions.
func (r *Residual) Params() []*tensor.Tensor {
	out := append(r.Conv1.Params(), r.Conv2.Params()...)
	if r.Proj != nil {
		out = append(out, r.Proj.Params()...)
	}
	return out
}

// Grads returns the gradients of all inner convolutions.
func (r *Residual) Grads() []*tensor.Tensor {
	out := append(r.Conv1.Grads(), r.Conv2.Grads()...)
	if r.Proj != nil {
		out = append(out, r.Proj.Grads()...)
	}
	return out
}

// Clone deep-copies the block.
func (r *Residual) Clone() Layer {
	out := &Residual{
		Conv1: r.Conv1.Clone().(*Conv2D),
		Conv2: r.Conv2.Clone().(*Conv2D),
		relu1: NewReLU(),
		relu2: NewReLU(),
	}
	if r.Proj != nil {
		out.Proj = r.Proj.Clone().(*Conv2D)
	}
	return out
}

// Name returns the layer name.
func (r *Residual) Name() string { return "residual" }
