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

	// Buffer-reuse mode (Sequential.EnableBufferReuse): out, dx and wt (the
	// [out, in] copy of Wᵀ that Backward refreshes for dX) are recycled
	// across calls whenever the batch shape repeats.
	reuse       bool
	out, dx, wt *tensor.Tensor
}

func (d *Dense) setBufferReuse(on bool) { d.reuse = on }

// scratch2 returns a [rows, cols] tensor for an output buffer. With reuse on,
// the cached buffer is returned as-is on a shape match and resized in place
// when its backing array is large enough — so alternating batch shapes (the
// SGD loop's full and tail batches) stop allocating once both have been seen.
func scratch2(reuse bool, buf *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if reuse && buf != nil && len(buf.Shape) == 2 && cap(buf.Data) >= rows*cols {
		buf.Shape[0], buf.Shape[1] = rows, cols
		buf.Data = buf.Data[:rows*cols]
		return buf
	}
	return tensor.New(rows, cols)
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

// Forward computes y = x·W + b.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.x = x
	batch := x.Shape[0]
	out := scratch2(d.reuse, d.out, batch, d.W.Shape[1])
	d.out = out
	tensor.MatMul(out, x, d.W)
	ncols := d.B.Size()
	for i := 0; i < batch; i++ {
		row := out.Data[i*ncols : (i+1)*ncols]
		for j, b := range d.B.Data {
			row[j] += b
		}
	}
	return out
}

// backwardParams computes dW = xᵀ·grad and dB = column-sum(grad).
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	tensor.MatMulAT(d.dW, d.x, grad)
	ncols := d.B.Size()
	d.dB.Zero()
	for i := 0; i < grad.Shape[0]; i++ {
		row := grad.Data[i*ncols : (i+1)*ncols]
		for j, g := range row {
			d.dB.Data[j] += g
		}
	}
}

// Backward computes dW and dB (backwardParams) and returns dX = grad·Wᵀ as
// MatMul of grad by the copy of Wᵀ in wt: the zero test stays on grad, and
// every element is the ascending reduction Σ_p grad[i,p]·W[j,p].
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	dx := scratch2(d.reuse, d.dx, grad.Shape[0], d.W.Shape[0])
	d.dx = dx
	d.wt = scratch2(d.reuse, d.wt, d.W.Shape[1], d.W.Shape[0])
	tensor.TransposeInto(d.wt, d.W)
	tensor.MatMul(dx, grad, d.wt)
	return dx
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
