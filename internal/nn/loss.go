package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy couples the softmax activation with the negative
// log-likelihood loss, the standard classification head. Combining the two
// keeps the backward pass numerically trivial: dLogits = (softmax - onehot)/B.
type SoftmaxCrossEntropy struct{}

// Forward returns the mean cross-entropy loss over the batch and the softmax
// probabilities (one row per sample). logits must be [batch, classes] and
// labels must hold a class index per row.
func (l SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	probs := tensor.New(logits.Shape[0], logits.Shape[1])
	return l.ForwardInto(probs, logits, labels), probs
}

// ForwardInto is Forward writing the softmax probabilities into probs (which
// must be shaped like logits) instead of allocating, returning the mean
// cross-entropy loss: ProbsInto plus the loss, for callers that report it.
func (l SoftmaxCrossEntropy) ForwardInto(probs, logits *tensor.Tensor, labels []int) float64 {
	l.ProbsInto(probs, logits, labels)
	c := logits.Shape[1]
	loss := 0.0
	for i, y := range labels {
		p := probs.Data[i*c+y]
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
	}
	return loss / float64(len(labels))
}

// ProbsInto writes the softmax probabilities of logits into probs (which must
// be shaped like logits) and checks every label is a class index, without
// computing the loss. The SGD inner loop pairs it with BackwardInPlace, which
// needs only the probabilities, so the loss head stays allocation-free and
// pays no logarithm per row.
func (SoftmaxCrossEntropy) ProbsInto(probs, logits *tensor.Tensor, labels []int) {
	b, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != b {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), b))
	}
	if !probs.SameShape(logits) {
		panic(fmt.Sprintf("nn: ProbsInto probs %v, logits %v", probs.Shape, logits.Shape))
	}
	for i := 0; i < b; i++ {
		row := logits.Data[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		prow := probs.Data[i*c : (i+1)*c]
		for j, v := range row {
			e := math.Exp(v - maxv)
			prow[j] = e
			sum += e
		}
		for j := range prow {
			prow[j] /= sum
		}
		if y := labels[i]; y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
	}
}

// Backward returns the gradient of the mean loss w.r.t. the logits given the
// probabilities produced by Forward.
func (l SoftmaxCrossEntropy) Backward(probs *tensor.Tensor, labels []int) *tensor.Tensor {
	grad := probs.Clone()
	l.BackwardInPlace(grad, labels)
	return grad
}

// BackwardInPlace converts probs into the gradient of the mean loss w.r.t.
// the logits, in place: (softmax − onehot)/B. The probabilities are consumed;
// use Backward when they must survive.
func (SoftmaxCrossEntropy) BackwardInPlace(probs *tensor.Tensor, labels []int) {
	b, c := probs.Shape[0], probs.Shape[1]
	inv := 1.0 / float64(b)
	for i := 0; i < b; i++ {
		probs.Data[i*c+labels[i]] -= 1
	}
	probs.Scale(inv)
}
