package core

import (
	"repro/internal/cpu"
	"repro/internal/tensor"
)

// Deterministic tree reduction for the two aggregation points of Alg. 1: the
// per-group weighted average over client slots (groupSpace.fold) and the global
// weighted fold over group parameters (Plan.Fold).
//
// The old reducers ran a serial left fold (Axpy chain) — deterministic, but
// strictly sequential: every partial sum depended on the previous one, so the
// aggregation could never use a second core and the whole weighted pass read
// each operand twice (scale, then add). The tree keeps determinism by fixing
// the *pairing*, not the schedule: level 0 folds adjacent nodes (0,1), (2,3),
// ... with the fused AxpbyInto kernel (one pass, weights applied in the same
// multiply-add order every time), odd tails are weighted in place and carried
// up, and higher levels sum adjacent survivors with AddInto. The pairing is a
// pure function of the live-node count, so every float operation order — and
// therefore every output bit — is identical whether the pairs of a level run
// inline or fanned out across goroutines.
//
// Changing the canonical summation order from left fold to tree changes the
// numerical results versus earlier versions of this package (both are valid
// roundings); within a version, replay and resume stay bit-exact, which is
// what the determinism contract promises.

// treeParMin is the minimum number of folded elements in one tree level
// (pairs × dim) before the level fans out across goroutines; below it the
// spawn overhead outweighs the bandwidth win.
const treeParMin = 1 << 16

// foldWeightedPairs folds node pairs [lo, hi) of tree level 0 in place:
// nodes[2j] = w[2j]·nodes[2j] + w[2j+1]·nodes[2j+1].
func foldWeightedPairs(nodes [][]float64, w []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		tensor.AxpbyInto(w[2*j], nodes[2*j], w[2*j+1], nodes[2*j+1], nodes[2*j])
	}
}

// foldSumPairs folds node pairs [lo, hi) of an upper tree level in place:
// nodes[2j] = nodes[2j] + nodes[2j+1].
func foldSumPairs(nodes [][]float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		tensor.AddInto(nodes[2*j], nodes[2*j+1], nodes[2*j])
	}
}

// foldPairs runs one tree level: pairs adjacent nodes, weighted (level 0) or
// plain sums (higher levels). Small levels run inline through the two fold
// helpers — no closure, no goroutine, zero allocations
// (TestTreeFoldSerialZeroAlloc) — so the serial training path keeps its
// zero-alloc steady state. Large levels chunk the
// pairs across up to par goroutines (cpu.Each); every pair writes only its own
// nodes[2j], so the fan-out changes scheduling, never operation order.
func foldPairs(nodes [][]float64, w []float64, pairs, dim, par int, weighted bool) {
	if par <= 1 || pairs < 2 || pairs*dim < treeParMin {
		if weighted {
			foldWeightedPairs(nodes, w, 0, pairs)
		} else {
			foldSumPairs(nodes, 0, pairs)
		}
		return
	}
	workers := min(par, pairs)
	chunk := (pairs + workers - 1) / workers
	cpu.Each((pairs+chunk-1)/chunk, workers, func(_, c int) {
		lo, hi := c*chunk, min((c+1)*chunk, pairs)
		if weighted {
			foldWeightedPairs(nodes, w, lo, hi)
		} else {
			foldSumPairs(nodes, lo, hi)
		}
	})
}

// treeFold computes Σ w[j]·nodes[j] over j in [0, n) with the fixed
// adjacent-pair tree and returns the root slice (nil when n is 0). The fold
// is destructive: node buffers are overwritten as partial sums, and the root
// aliases nodes[0]'s buffer (except n == 1, where it aliases the sole node,
// scaled in place). nodes[:n] is permuted, never duplicated, so it still
// holds every buffer once. The caller may pass any par ≥ 1; results are
// bit-identical for all values.
func treeFold(nodes [][]float64, w []float64, n, par int) []float64 {
	if n == 0 {
		return nil
	}
	if n == 1 {
		tensor.ScaleSlice(w[0], nodes[0])
		return nodes[0]
	}
	dim := len(nodes[0])
	// Level 0 fuses the weighting into the first fold: one pass over each
	// pair instead of a scale pass plus an add pass.
	pairs := n / 2
	foldPairs(nodes, w, pairs, dim, par, true)
	if n%2 == 1 {
		tensor.ScaleSlice(w[n-1], nodes[n-1])
	}
	count := (n + 1) / 2
	for j := 1; j < count; j++ {
		nodes[j], nodes[2*j] = nodes[2*j], nodes[j]
	}
	// Higher levels pair the weighted survivors; an odd tail node carries up
	// by reference, costing nothing.
	for count > 1 {
		pairs = count / 2
		foldPairs(nodes, nil, pairs, dim, par, false)
		count = (count + 1) / 2
		for j := 1; j < count; j++ {
			nodes[j], nodes[2*j] = nodes[2*j], nodes[j]
		}
	}
	return nodes[0]
}
