package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// refTreeFold is an independent, allocation-happy reference for the fixed
// adjacent-pair tree: level 0 computes w[2j]·x + w[2j+1]·y per pair (same
// expression shape as the fused kernel, so the per-element operation order
// matches bit for bit), an odd tail is scaled and carried, and higher levels
// sum adjacent survivors into fresh buffers.
func refTreeFold(vals [][]float64, w []float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	dim := len(vals[0])
	cur := make([][]float64, 0, (len(vals)+1)/2)
	for j := 0; j+1 < len(vals); j += 2 {
		node := make([]float64, dim)
		for i := range node {
			node[i] = w[j]*vals[j][i] + w[j+1]*vals[j+1][i]
		}
		cur = append(cur, node)
	}
	if len(vals)%2 == 1 {
		node := make([]float64, dim)
		for i := range node {
			node[i] = w[len(vals)-1] * vals[len(vals)-1][i]
		}
		cur = append(cur, node)
	}
	for len(cur) > 1 {
		nxt := make([][]float64, 0, (len(cur)+1)/2)
		for j := 0; j+1 < len(cur); j += 2 {
			node := make([]float64, dim)
			for i := range node {
				node[i] = cur[j][i] + cur[j+1][i]
			}
			nxt = append(nxt, node)
		}
		if len(cur)%2 == 1 {
			nxt = append(nxt, cur[len(cur)-1])
		}
		cur = nxt
	}
	return cur[0]
}

// TestTreeFoldMatchesReference is the aggregation determinism property test:
// for every group size 1..33 and every parallelism the engine uses in anger,
// the in-place tree fold must be bit-identical to the independent reference —
// i.e. the pairing (and thus every float operation order) is a pure function
// of the node count, never of the schedule. dim is chosen so sizes ≥ 8 cross
// treeParMin and actually exercise the goroutine fan-out at par > 1.
func TestTreeFoldMatchesReference(t *testing.T) {
	const dim = 16384
	rng := stats.NewRNG(99)
	for n := 1; n <= 33; n++ {
		vals := make([][]float64, n)
		w := make([]float64, n)
		for j := range vals {
			vals[j] = make([]float64, dim)
			for i := range vals[j] {
				vals[j][i] = rng.Normal(0, 1)
			}
			w[j] = float64(1 + rng.IntN(40))
		}
		want := refTreeFold(vals, w)

		// The fold is destructive, so each par value gets fresh node copies.
		for _, par := range []int{1, 2, 8} {
			nodes := make([][]float64, n)
			for j := range nodes {
				nodes[j] = append([]float64(nil), vals[j]...)
			}
			got := treeFold(nodes, w, n, par)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d par=%d: element %d = %x, want %x", n, par, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}

		// Sanity anchor: the tree is a regrouping of the plain weighted sum,
		// so it must agree with the left fold to rounding error.
		naive := make([]float64, 4)
		for j := range vals {
			for i := range naive {
				naive[i] += w[j] * vals[j][i]
			}
		}
		for i := range naive {
			if diff := math.Abs(naive[i] - want[i]); diff > 1e-9*(1+math.Abs(naive[i])) {
				t.Fatalf("n=%d: tree %v vs naive %v at %d", n, want[i], naive[i], i)
			}
		}
	}
}

// TestTreeFoldSerialZeroAlloc pins the serial path's allocation discipline:
// at par 1 the fold must not allocate — it sits inside every group round of
// the zero-alloc training steady state.
func TestTreeFoldSerialZeroAlloc(t *testing.T) {
	const dim, n = 256, 9
	nodes := make([][]float64, n)
	w := make([]float64, n)
	rng := stats.NewRNG(7)
	for j := range nodes {
		nodes[j] = make([]float64, dim)
		for i := range nodes[j] {
			nodes[j][i] = rng.Normal(0, 1)
		}
		w[j] = float64(1 + j)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		treeFold(nodes, w, n, 1)
	}); allocs != 0 {
		t.Fatalf("serial treeFold allocated %.1f times per run, want 0", allocs)
	}
}
