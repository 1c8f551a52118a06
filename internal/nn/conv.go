package nn

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over [batch, channels, height, width] inputs,
// implemented as im2col + matrix multiplication so the heavy lifting runs on
// the tensor matmul kernels.
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	W           *tensor.Tensor // [OutC, InC*KH*KW]
	B           *tensor.Tensor // [OutC]
	dW, dB      *tensor.Tensor
	cols        *tensor.Tensor // cached im2col of the last input
	inShape     []int
	outH, outW  int

	// The im2col matrix, both matmul operand/output buffers, the input
	// gradient and wt, the [InC*KH*KW, OutC] copy of Wᵀ that Forward
	// refreshes, are recycled across calls (tensor.Resize). The padding
	// zeros and the col2im accumulator are re-zeroed explicitly, so a
	// recycled buffer can never leak a previous batch's values into the
	// result.
	outCols, out *tensor.Tensor
	dy, dcols    *tensor.Tensor
	dx, wt       *tensor.Tensor
}

// NewConv2D creates a conv layer with He initialization.
func NewConv2D(inC, outC, kh, kw, stride, pad int, rng *stats.RNG) *Conv2D {
	k := inC * kh * kw
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		W:  tensor.New(outC, k),
		B:  tensor.New(outC),
		dW: tensor.New(outC, k),
		dB: tensor.New(outC),
	}
	c.W.RandNormal(rng, math.Sqrt(2/float64(k)))
	return c
}

// outDims returns the spatial output size for input h×w.
func (c *Conv2D) outDims(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output dims %dx%d for input %dx%d", oh, ow, h, w))
	}
	return oh, ow
}

// im2col unrolls x [B,C,H,W] into [B*OH*OW, C*KH*KW].
func (c *Conv2D) im2col(x *tensor.Tensor) *tensor.Tensor {
	b, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := c.outDims(h, w)
	k := ch * c.KH * c.KW
	cols := tensor.Resize(c.cols, b*oh*ow, k)
	for bi := 0; bi < b; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((bi*oh+oy)*ow+ox)*k : ((bi*oh+oy)*ow+ox+1)*k]
				idx := 0
				for ci := 0; ci < ch; ci++ {
					base := (bi*ch + ci) * h * w
					for ky := 0; ky < c.KH; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						for kx := 0; kx < c.KW; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								row[idx] = x.Data[base+iy*w+ix]
							} else {
								// Explicit, not relying on fresh-buffer zeroing:
								// a recycled row may hold stale values here.
								row[idx] = 0
							}
							idx++
						}
					}
				}
			}
		}
	}
	return cols
}

// col2im scatter-adds cols [B*OH*OW, C*KH*KW] back into an input-shaped
// gradient tensor.
func (c *Conv2D) col2im(cols *tensor.Tensor, b, ch, h, w int) *tensor.Tensor {
	oh, ow := c.outDims(h, w)
	k := ch * c.KH * c.KW
	c.dx = tensor.Resize(c.dx, b, ch, h, w)
	dx := c.dx
	dx.Zero() // scatter-add accumulator: a recycled buffer must start clean
	for bi := 0; bi < b; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((bi*oh+oy)*ow+ox)*k : ((bi*oh+oy)*ow+ox+1)*k]
				idx := 0
				for ci := 0; ci < ch; ci++ {
					base := (bi*ch + ci) * h * w
					for ky := 0; ky < c.KH; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						for kx := 0; kx < c.KW; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								dx.Data[base+iy*w+ix] += row[idx]
							}
							idx++
						}
					}
				}
			}
		}
	}
	return dx
}

// Forward computes the convolution.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: conv expects [B,%d,H,W], got %v", c.InC, x.Shape))
	}
	b, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.outDims(h, w)
	c.inShape = append(c.inShape[:0], x.Shape...)
	c.outH, c.outW = oh, ow
	cols := c.im2col(x)
	c.cols = cols
	// outCols[n, oc] = cols[n, :]·W[oc, :] + B[oc], as cols × Wᵀ with the
	// zero test on cols and the bias added in the kernel's store.
	c.outCols = tensor.Resize(c.outCols, b*oh*ow, c.OutC)
	outCols := c.outCols
	c.wt = tensor.Resize(c.wt, c.W.Shape[1], c.OutC)
	tensor.TransposeInto(c.wt, c.W)
	tensor.MatMulBias(outCols, cols, c.wt, c.B)
	// Reorder [B, OH*OW, OutC] -> [B, OutC, OH, OW].
	c.out = tensor.Resize(c.out, b, c.OutC, oh, ow)
	out := c.out
	hw := oh * ow
	for bi := 0; bi < b; bi++ {
		for n := 0; n < hw; n++ {
			src := outCols.Data[(bi*hw+n)*c.OutC : (bi*hw+n+1)*c.OutC]
			for oc, v := range src {
				out.Data[(bi*c.OutC+oc)*hw+n] = v
			}
		}
	}
	return out
}

// backwardParams computes dW and dB, leaving grad reordered to
// [B*OH*OW, OutC] in c.dy, which Backward goes on to use for dX.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	b := c.inShape[0]
	hw := c.outH * c.outW
	// Reorder grad [B, OutC, OH, OW] -> dYcols [B*OH*OW, OutC].
	c.dy = tensor.Resize(c.dy, b*hw, c.OutC)
	dy := c.dy
	for bi := 0; bi < b; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := grad.Data[(bi*c.OutC+oc)*hw : (bi*c.OutC+oc+1)*hw]
			for n, v := range src {
				dy.Data[(bi*hw+n)*c.OutC+oc] = v
			}
		}
	}
	// dW = dyᵀ × cols, dB = column sums of dy.
	tensor.MatMulAT(c.dW, dy, c.cols)
	tensor.ColSum(c.dB, dy)
}

// Backward computes dW and dB (backwardParams) and returns dX.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	b := c.inShape[0]
	// dcols = dy × W, then scatter back.
	c.dcols = tensor.Resize(c.dcols, b*c.outH*c.outW, c.W.Shape[1])
	tensor.MatMul(c.dcols, c.dy, c.W)
	return c.col2im(c.dcols, b, c.inShape[1], c.inShape[2], c.inShape[3])
}

// Params returns [W, B].
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns [dW, dB].
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }

// Clone deep-copies the layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad,
		W: c.W.Clone(), B: c.B.Clone(),
		dW: tensor.New(c.dW.Shape...), dB: tensor.New(c.dB.Shape...),
	}
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return "conv2d" }
