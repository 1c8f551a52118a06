package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm normalizes activations per feature (2-D inputs [B, F]) or per
// channel (4-D inputs [B, C, H, W]), with learned scale γ and shift β.
// Training uses batch statistics and maintains running estimates;
// evaluation uses the running estimates, so federated clients that train
// on tiny batches still evaluate consistently.
type BatchNorm struct {
	Features int
	Eps      float64
	Momentum float64

	Gamma, Beta   *tensor.Tensor
	dGamma, dBeta *tensor.Tensor
	// RunMean and RunVar are the running statistics (part of the layer's
	// parameters for cloning purposes but not trained by gradient).
	RunMean, RunVar *tensor.Tensor

	// caches
	xhat     *tensor.Tensor
	std      []float64
	inShape  []int
	groups   int // B*H*W: elements per feature in the last batch
	zeroRun1 *tensor.Tensor
	zeroRun2 *tensor.Tensor
}

// NewBatchNorm creates a batch normalization layer over the given feature
// (or channel) count.
func NewBatchNorm(features int) *BatchNorm {
	bn := &BatchNorm{
		Features: features, Eps: 1e-5, Momentum: 0.1,
		Gamma: tensor.New(features), Beta: tensor.New(features),
		dGamma: tensor.New(features), dBeta: tensor.New(features),
		RunMean: tensor.New(features), RunVar: tensor.New(features),
	}
	bn.Gamma.Fill(1)
	bn.RunVar.Fill(1)
	return bn
}

// layout returns (perFeature, stride, spatial) describing how feature f's
// elements are laid out: for [B,F] spatial=1; for [B,C,H,W] spatial=H*W.
func (bn *BatchNorm) layout(x *tensor.Tensor) (batch, spatial int) {
	switch x.Rank() {
	case 2:
		if x.Shape[1] != bn.Features {
			panic(fmt.Sprintf("nn: batchnorm expects %d features, got %v", bn.Features, x.Shape))
		}
		return x.Shape[0], 1
	case 4:
		if x.Shape[1] != bn.Features {
			panic(fmt.Sprintf("nn: batchnorm expects %d channels, got %v", bn.Features, x.Shape))
		}
		return x.Shape[0], x.Shape[2] * x.Shape[3]
	}
	panic(fmt.Sprintf("nn: batchnorm supports rank 2 or 4, got %v", x.Shape))
}

// forEach visits every element of feature f in x.
func (bn *BatchNorm) forEach(x *tensor.Tensor, batch, spatial, f int, fn func(idx int)) {
	for b := 0; b < batch; b++ {
		base := (b*bn.Features + f) * spatial
		for s := 0; s < spatial; s++ {
			fn(base + s)
		}
	}
}

// Forward normalizes the batch.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, spatial := bn.layout(x)
	n := float64(batch * spatial)
	out := x.Clone()
	bn.inShape = append(bn.inShape[:0], x.Shape...)
	bn.groups = batch * spatial
	if bn.xhat == nil || bn.xhat.Size() != x.Size() {
		bn.xhat = tensor.New(x.Shape...)
	} else {
		bn.xhat = bn.xhat.Reshape(x.Shape...)
	}
	if bn.std == nil || len(bn.std) != bn.Features {
		bn.std = make([]float64, bn.Features)
	}
	for f := 0; f < bn.Features; f++ {
		var mean, vr float64
		if train {
			sum := 0.0
			bn.forEach(x, batch, spatial, f, func(i int) { sum += x.Data[i] })
			mean = sum / n
			ss := 0.0
			bn.forEach(x, batch, spatial, f, func(i int) {
				d := x.Data[i] - mean
				ss += float64(d * d)
			})
			vr = ss / n
			bn.RunMean.Data[f] = float64((1-bn.Momentum)*bn.RunMean.Data[f]) + float64(bn.Momentum*mean)
			bn.RunVar.Data[f] = float64((1-bn.Momentum)*bn.RunVar.Data[f]) + float64(bn.Momentum*vr)
		} else {
			mean, vr = bn.RunMean.Data[f], bn.RunVar.Data[f]
		}
		std := math.Sqrt(vr + bn.Eps)
		bn.std[f] = std
		g, b := bn.Gamma.Data[f], bn.Beta.Data[f]
		bn.forEach(x, batch, spatial, f, func(i int) {
			xh := (x.Data[i] - mean) / std
			bn.xhat.Data[i] = xh
			out.Data[i] = float64(g*xh) + b
		})
	}
	return out
}

// Backward computes gradients for γ, β, and the input using the standard
// batch-norm backward pass.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, spatial := bn.layout(grad)
	n := float64(batch * spatial)
	dx := tensor.New(bn.inShape...)
	for f := 0; f < bn.Features; f++ {
		var sumDy, sumDyXhat float64
		bn.forEach(grad, batch, spatial, f, func(i int) {
			sumDy += grad.Data[i]
			sumDyXhat += float64(grad.Data[i] * bn.xhat.Data[i])
		})
		bn.dGamma.Data[f] += sumDyXhat
		bn.dBeta.Data[f] += sumDy
		g := bn.Gamma.Data[f]
		std := bn.std[f]
		bn.forEach(grad, batch, spatial, f, func(i int) {
			dx.Data[i] = g / std * (grad.Data[i] - sumDy/n - bn.xhat.Data[i]*sumDyXhat/n)
		})
	}
	return dx
}

// Params returns [Gamma, Beta]. Running statistics are not gradient-trained
// but are part of the federated parameter vector so aggregation keeps
// clients' normalizers in sync — include them.
func (bn *BatchNorm) Params() []*tensor.Tensor {
	return []*tensor.Tensor{bn.Gamma, bn.Beta, bn.RunMean, bn.RunVar}
}

// Grads returns gradients aligned with Params (running stats get pinned
// zero gradients: SGD leaves them unchanged, which is what we want).
func (bn *BatchNorm) Grads() []*tensor.Tensor {
	if bn.zeroRun1 == nil {
		bn.zeroRun1 = tensor.New(bn.Features)
		bn.zeroRun2 = tensor.New(bn.Features)
	}
	return []*tensor.Tensor{bn.dGamma, bn.dBeta, bn.zeroRun1, bn.zeroRun2}
}

// Clone deep-copies the layer.
func (bn *BatchNorm) Clone() Layer {
	out := NewBatchNorm(bn.Features)
	out.Eps, out.Momentum = bn.Eps, bn.Momentum
	out.Gamma = bn.Gamma.Clone()
	out.Beta = bn.Beta.Clone()
	out.RunMean = bn.RunMean.Clone()
	out.RunVar = bn.RunVar.Clone()
	return out
}

// Name returns the layer name.
func (bn *BatchNorm) Name() string { return "batchnorm" }
