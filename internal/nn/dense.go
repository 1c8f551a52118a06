package nn

import (
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b for x of shape
// [batch, in] and W of shape [in, out].
type Dense struct {
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor
	x      *tensor.Tensor // cached input

	// out, dx and wt (the [out, in] copy of Wᵀ that Backward refreshes for
	// dX) are recycled across calls (tensor.Resize).
	out, dx, wt *tensor.Tensor
}

// NewDense creates a dense layer with He-initialized weights.
func NewDense(in, out int, rng *stats.RNG) *Dense {
	d := &Dense{
		W:  tensor.New(in, out),
		B:  tensor.New(out),
		dW: tensor.New(in, out),
		dB: tensor.New(out),
	}
	d.W.RandNormal(rng, math.Sqrt(2/float64(in)))
	return d
}

// Forward computes y = x·W + b, the bias added to each row's sum inside the
// product's one kernel call.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.x = x
	d.out = tensor.Resize(d.out, x.Shape[0], d.W.Shape[1])
	tensor.MatMulBias(d.out, x, d.W, d.B)
	return d.out
}

// backwardParams computes dW = xᵀ·grad and dB = column-sum(grad), each one
// kernel call.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	tensor.MatMulAT(d.dW, d.x, grad)
	tensor.ColSum(d.dB, grad)
}

// Backward computes dW and dB (backwardParams) and returns dX = grad·Wᵀ as
// MatMul of grad by the copy of Wᵀ in wt: the zero test stays on grad, and
// every element is the ascending reduction Σ_p grad[i,p]·W[j,p].
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	d.dx = tensor.Resize(d.dx, grad.Shape[0], d.W.Shape[0])
	d.wt = tensor.Resize(d.wt, d.W.Shape[1], d.W.Shape[0])
	tensor.TransposeInto(d.wt, d.W)
	tensor.MatMul(d.dx, grad, d.wt)
	return d.dx
}

// Params returns [W, B].
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads returns [dW, dB].
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }

// Clone deep-copies the layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		W:  d.W.Clone(),
		B:  d.B.Clone(),
		dW: tensor.New(d.dW.Shape...),
		dB: tensor.New(d.dB.Shape...),
	}
}

// Name returns the layer name.
func (d *Dense) Name() string { return "dense" }
