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
	a.order = tensor.Grow(a.order, n)
	for i := range a.order {
		a.order[i] = i
	}
	return a.order
}

// ensure sizes the batch buffers for rows samples shaped like src's trailing
// dimensions. The features resize by capacity (tensor.Resize), so clients
// whose tail batches differ in length share one allocation.
func (b *sgdBatch) ensure(rows int, src *tensor.Tensor) {
	var dims [4]int
	shape := append(dims[:0], src.Shape...)
	shape[0] = rows
	b.x, b.y = tensor.Resize(b.x, shape...), tensor.Grow(b.y, rows)
}
