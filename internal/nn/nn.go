// Package nn is a compact, dependency-free neural network substrate: dense
// and convolutional layers with explicit forward/backward passes, residual
// blocks, softmax cross-entropy loss, and SGD. It provides exactly what the
// federated learning algorithms in this repository need — models whose
// parameters can be flattened to vectors, aggregated, perturbed, and
// gradient-checked — without pulling in a deep learning framework (which Go
// lacks; see DESIGN.md substitution table).
//
// All layers are single-goroutine objects: clone a model per concurrent
// client. Heavy math (matrix multiplies inside dense/conv layers) runs in the
// tensor package, on the calling goroutine. Layers recycle their output and
// gradient buffers from call to call (tensor.Resize); a caller that keeps an
// activation past the layer's next call copies it.
package nn

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward must be called
// before Backward; layers cache activations internally between the two.
//
// Forward and Backward may return buffers the layer owns and recycles: a
// result is valid only until the layer's next Forward or Backward call, so
// the caller consumes it before then or copies it.
//
// Backward computes both gradients a layer owns: the parameter gradients it
// leaves in Grads, and the input gradient it returns for the layer below.
// The first layer of a Sequential has no layer below it, so there the input
// gradient — the gradient with respect to the data — is never computed (see
// Sequential.Backward).
type Layer interface {
	// Forward computes the layer output for a batch. No layer reads train
	// — none behaves differently while training — but bench/probes.go passes
	// it, so the argument stays until bench/ is next open to change.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient of the loss w.r.t. the layer output
	// and returns the gradient w.r.t. the layer input, accumulating
	// parameter gradients internally.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors aligned with Params.
	Grads() []*tensor.Tensor
	// Clone returns a deep copy with fresh caches and copied parameters.
	Clone() Layer
	// Name identifies the layer in error messages.
	Name() string
}

// Sequential chains layers into a feed-forward network.
//
// The layer list must not be restructured after the first Forward, Params,
// or Grads call: parameter and gradient tensor lists are memoized so the
// optimizer and the federated vector round-trips stay allocation-free.
type Sequential struct {
	Layers []Layer

	// Memoized Params/Grads results (the tensor pointers are stable for the
	// life of the network, so building the lists once is safe).
	params, grads []*tensor.Tensor
	numParams     int
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the batch x through every layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// paramBackwarder is implemented by layers that can compute their parameter
// gradients without also computing the input gradient.
type paramBackwarder interface{ backwardParams(grad *tensor.Tensor) }

// Backward is the parameter-gradient pass: it propagates grad (the gradient
// of the loss w.r.t. the network output) back through the layers and leaves
// every parameter gradient in Grads. Layers 1..n-1 run their full Backward,
// because the layer below needs their input gradient. Layer 0 feeds nothing:
// its input gradient would be the gradient w.r.t. the data, which training
// never reads, so a Dense or Conv2D first layer computes dW and dB only and
// skips the dX matmul (and, for Conv2D, the col2im scatter). Nothing is
// returned; a caller that wants the data gradient chains Layers[i].Backward
// itself.
func (s *Sequential) Backward(grad *tensor.Tensor) {
	if len(s.Layers) == 0 {
		return
	}
	for i := len(s.Layers) - 1; i > 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	if first, ok := s.Layers[0].(paramBackwarder); ok {
		first.backwardParams(grad)
		return
	}
	s.Layers[0].Backward(grad)
}

// Params returns all trainable tensors in layer order. The list is memoized;
// callers must treat it as read-only.
func (s *Sequential) Params() []*tensor.Tensor {
	if s.params == nil {
		for _, l := range s.Layers {
			s.params = append(s.params, l.Params()...)
		}
		for _, p := range s.params {
			s.numParams += p.Size()
		}
	}
	return s.params
}

// Grads returns all gradient tensors in layer order. The list is memoized;
// callers must treat it as read-only.
func (s *Sequential) Grads() []*tensor.Tensor {
	if s.grads == nil {
		for _, l := range s.Layers {
			s.grads = append(s.grads, l.Grads()...)
		}
	}
	return s.grads
}

// Clone deep-copies the network (parameters copied, caches fresh).
func (s *Sequential) Clone() *Sequential {
	out := &Sequential{Layers: make([]Layer, len(s.Layers))}
	for i, l := range s.Layers {
		out.Layers[i] = l.Clone()
	}
	return out
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	s.Params()
	return s.numParams
}

// ParamVector flattens all parameters into a single new vector, in a stable
// layer order. This is the representation exchanged by the federated
// aggregation and secure aggregation code.
func (s *Sequential) ParamVector() []float64 {
	return s.ParamVectorInto(nil)
}

// ParamVectorInto writes the flattened parameters into dst and returns it,
// reallocating only when dst's capacity is short. Passing a reused buffer
// makes the per-client parameter export in the training hot loop
// allocation-free; ParamVectorInto(nil) is equivalent to ParamVector.
func (s *Sequential) ParamVectorInto(dst []float64) []float64 {
	n := s.NumParams()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	off := 0
	for _, p := range s.Params() {
		off += copy(dst[off:], p.Data)
	}
	return dst
}

// SetParamVector writes v back into the parameters. len(v) must equal
// NumParams.
func (s *Sequential) SetParamVector(v []float64) {
	off := 0
	for _, p := range s.Params() {
		n := p.Size()
		if off+n > len(v) {
			panic(fmt.Sprintf("nn: SetParamVector short vector: have %d, need %d", len(v), s.NumParams()))
		}
		copy(p.Data, v[off:off+n])
		off += n
	}
	if off != len(v) {
		panic(fmt.Sprintf("nn: SetParamVector length %d, want %d", len(v), off))
	}
}

// EnableBufferReuse does nothing: every layer recycles its buffers (see
// Layer). It is kept only because bench/probes.go calls it.
func (s *Sequential) EnableBufferReuse() {}

// GradVector flattens all gradients into a single new vector aligned with
// ParamVector.
func (s *Sequential) GradVector() []float64 {
	out := make([]float64, 0, s.NumParams())
	for _, g := range s.Grads() {
		out = append(out, g.Data...)
	}
	return out
}

// Summary returns a human-readable architecture description: one line per
// layer with its parameter count, plus the total.
func (s *Sequential) Summary() string {
	var b strings.Builder
	total := 0
	for i, l := range s.Layers {
		n := 0
		for _, p := range l.Params() {
			n += p.Size()
		}
		total += n
		fmt.Fprintf(&b, "%2d  %-14s %8d params\n", i, l.Name(), n)
	}
	fmt.Fprintf(&b, "    %-14s %8d params\n", "total", total)
	return b.String()
}
