package core

import (
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// sgdArena is the reusable scratch of one worker's SGD loop: the shuffle
// order, the mini-batch tensors (including the short tail batch), the
// softmax-probability buffers of the loss head, the optimizer, and a
// reseedable RNG. One arena lives per engine worker, so the steady-state
// inner loop of sgdEpochs performs no allocation at all — every buffer is
// recycled across batches, epochs, clients, and rounds.
type sgdArena struct {
	rng        *stats.RNG
	opt        *nn.SGD
	order      []int
	full, tail sgdBatch
}

// sgdBatch is one mini-batch's worth of reusable buffers: features, labels,
// and the loss head's probability/gradient tensor.
type sgdBatch struct {
	x     *tensor.Tensor
	y     []int
	probs *tensor.Tensor
}

// newSGDArena returns an empty arena; buffers grow on first use.
func newSGDArena() *sgdArena {
	return &sgdArena{rng: stats.NewRNG(0), opt: nn.NewSGD(0)}
}

// ensureOrder returns the identity permutation [0..n), reusing the backing
// array. The contents are reset every call because successive epochs shuffle
// in place and each client must start from the identity.
func (a *sgdArena) ensureOrder(n int) []int {
	if cap(a.order) < n {
		a.order = make([]int, n)
	}
	a.order = a.order[:n]
	for i := range a.order {
		a.order[i] = i
	}
	return a.order
}

// ensure sizes the batch buffers for rows samples shaped like src's trailing
// dimensions. Like nn's scratch2 it resizes by capacity, so clients whose
// tail batches differ in length share one allocation.
func (b *sgdBatch) ensure(rows int, src *tensor.Tensor) {
	n := rows * (src.Size() / src.Shape[0])
	if b.x == nil || !sameTrailing(b.x.Shape, src.Shape) || cap(b.x.Data) < n {
		shape := make([]int, len(src.Shape))
		copy(shape, src.Shape)
		shape[0] = rows
		b.x = tensor.New(shape...)
	}
	b.x.Shape[0], b.x.Data = rows, b.x.Data[:n]
	if cap(b.y) < rows {
		b.y = make([]int, rows)
	}
	b.y = b.y[:rows]
}

// ensureProbs returns a probability buffer shaped like logits, resized by
// capacity like the batch itself.
func (b *sgdBatch) ensureProbs(logits *tensor.Tensor) *tensor.Tensor {
	if b.probs == nil || len(b.probs.Shape) != len(logits.Shape) || cap(b.probs.Data) < len(logits.Data) {
		b.probs = tensor.New(logits.Shape...)
	}
	copy(b.probs.Shape, logits.Shape)
	b.probs.Data = b.probs.Data[:len(logits.Data)]
	return b.probs
}

// sameTrailing reports whether two shapes agree in every dimension after the
// leading (batch) one.
func sameTrailing(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 1; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// growFloats returns a zeroed slice of length n, reusing buf's backing array
// when it is large enough.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
