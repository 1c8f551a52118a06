package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D downsamples [B,C,H,W] inputs with a square window and equal
// stride (the classic non-overlapping pooling).
type MaxPool2D struct {
	K       int
	argmax  []int
	inShape []int

	// Buffer-reuse mode (Sequential.EnableBufferReuse): Forward's output is
	// recycled across calls; every element of it is overwritten.
	reuse bool
	out   *tensor.Tensor
}

// NewMaxPool2D returns a max-pooling layer with window and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

func (p *MaxPool2D) setBufferReuse(on bool) { p.reuse = on }

// Forward computes window maxima and records argmax indices for backward.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: maxpool expects rank-4 input, got %v", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/p.K, w/p.K
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("nn: maxpool window %d too large for %dx%d", p.K, h, w))
	}
	p.inShape = append(p.inShape[:0], x.Shape...)
	out := scratch4(p.reuse, p.out, b, c, oh, ow)
	p.out = out
	if cap(p.argmax) < out.Size() {
		p.argmax = make([]int, out.Size())
	}
	p.argmax = p.argmax[:out.Size()]
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			base := (bi*c + ci) * h * w
			obase := (bi*c + ci) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := base + (oy*p.K)*w + ox*p.K
					bv := x.Data[best]
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := base + (oy*p.K+ky)*w + (ox*p.K + kx)
							if x.Data[idx] > bv {
								bv = x.Data[idx]
								best = idx
							}
						}
					}
					o := obase + oy*ow + ox
					out.Data[o] = bv
					p.argmax[o] = best
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to its argmax input position.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.inShape...)
	for o, idx := range p.argmax {
		dx.Data[idx] += grad.Data[o]
	}
	return dx
}

// Params returns nil.
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// Clone returns a fresh pool layer.
func (p *MaxPool2D) Clone() Layer { return &MaxPool2D{K: p.K} }

// Name returns the layer name.
func (p *MaxPool2D) Name() string { return "maxpool2d" }

// GlobalAvgPool reduces [B,C,H,W] to [B,C] by averaging each feature map,
// as used before the classifier head in the ResNet-lite model.
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages over the spatial dimensions.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: gap expects rank-4 input, got %v", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.inShape = append(p.inShape[:0], x.Shape...)
	out := tensor.New(b, c)
	hw := float64(h * w)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			s := 0.0
			fm := x.Data[(bi*c+ci)*h*w : (bi*c+ci+1)*h*w]
			for _, v := range fm {
				s += v
			}
			out.Data[bi*c+ci] = s / hw
		}
	}
	return out
}

// Backward spreads each gradient uniformly over the pooled region.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	dx := tensor.New(p.inShape...)
	inv := 1.0 / float64(h*w)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			g := grad.Data[bi*c+ci] * inv
			fm := dx.Data[(bi*c+ci)*h*w : (bi*c+ci+1)*h*w]
			for i := range fm {
				fm[i] = g
			}
		}
	}
	return dx
}

// Params returns nil.
func (p *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads returns nil.
func (p *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }

// Clone returns a fresh layer.
func (p *GlobalAvgPool) Clone() Layer { return &GlobalAvgPool{} }

// Name returns the layer name.
func (p *GlobalAvgPool) Name() string { return "globalavgpool" }
