package nn

import (
	"math"

	"repro/internal/tensor"
)

// Tanh applies the hyperbolic tangent element-wise.
type Tanh struct {
	out *tensor.Tensor
}

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh and caches the outputs for the backward pass.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = math.Tanh(v)
	}
	t.out = out
	return out
}

// Backward multiplies by 1 − tanh².
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i := range out.Data {
		y := t.out.Data[i]
		out.Data[i] *= 1 - float64(y*y)
	}
	return out
}

// Params returns nil.
func (t *Tanh) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (t *Tanh) Grads() []*tensor.Tensor { return nil }

// Clone returns a fresh Tanh.
func (t *Tanh) Clone() Layer { return &Tanh{} }

// Name returns the layer name.
func (t *Tanh) Name() string { return "tanh" }

// Sigmoid applies the logistic function element-wise.
type Sigmoid struct {
	out *tensor.Tensor
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies 1/(1+e^-x).
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	s.out = out
	return out
}

// Backward multiplies by σ(1−σ).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i := range out.Data {
		y := s.out.Data[i]
		out.Data[i] *= y * (1 - y)
	}
	return out
}

// Params returns nil.
func (s *Sigmoid) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (s *Sigmoid) Grads() []*tensor.Tensor { return nil }

// Clone returns a fresh Sigmoid.
func (s *Sigmoid) Clone() Layer { return &Sigmoid{} }

// Name returns the layer name.
func (s *Sigmoid) Name() string { return "sigmoid" }

// LeakyReLU applies max(αx, x) element-wise.
type LeakyReLU struct {
	Alpha float64
	in    *tensor.Tensor
}

// NewLeakyReLU returns a leaky ReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies the piecewise-linear map and caches the input.
func (l *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.in = x
	out := x.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = l.Alpha * v
		}
	}
	return out
}

// Backward scales gradients on the negative side by α.
func (l *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i := range out.Data {
		if l.in.Data[i] < 0 {
			out.Data[i] *= l.Alpha
		}
	}
	return out
}

// Params returns nil.
func (l *LeakyReLU) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (l *LeakyReLU) Grads() []*tensor.Tensor { return nil }

// Clone returns a fresh layer with the same slope.
func (l *LeakyReLU) Clone() Layer { return &LeakyReLU{Alpha: l.Alpha} }

// Name returns the layer name.
func (l *LeakyReLU) Name() string { return "leakyrelu" }
