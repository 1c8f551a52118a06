package core

import (
	"slices"

	"repro/internal/cpu"
	"repro/internal/grouping"
)

// Executor is the seam under the Plan: everything below "run these groups
// from params at round t" (Alg. 1 lines 7–14). Trainer.Step, the only round
// loop, knows nothing else about where clients train — the engine
// (NewExecutor) trains them on Workers its System lends, fednode's cloud
// over its edge connections.
type Executor interface {
	// RunGroups trains groups[selected[si]] from params (read-only) for round
	// t, writes each selection slot's group model into out[si], a vector of
	// len(params) the caller owns, and returns one update per slot, in
	// selection order. The returned slice belongs to the executor and is
	// valid until its next call.
	RunGroups(t int, groups []*grouping.Group, selected []int, params []float64, out [][]float64) ([]GroupUpdate, error)
}

// GroupUpdate is one selected group's result for a global round, beside the
// group model in its slot's vector.
type GroupUpdate struct {
	// Drops counts client updates lost; UplinkBytes totals the client→edge
	// payload of the updates that arrived.
	Drops       int
	UplinkBytes int64
}

// RunGroups trains the selected groups in parallel, at most max at once,
// each on the machine its System lends the goroutine of the fan-out for the
// call.
func (e *engine) RunGroups(t int, groups []*grouping.Group, selected []int, params []float64, out [][]float64) ([]GroupUpdate, error) {
	e.updates = slices.Grow(e.updates[:0], len(selected))[:len(selected)]
	updates := e.updates
	l := &e.sys.lend
	e.spaces = take(l, &l.spaces, e.spaces, min(e.max, len(selected)), newGroupSpace)
	spaces := e.spaces
	cpu.Each(len(selected), e.max, func(w, si int) {
		sp := spaces[w]
		sp.begin(e, out[si], groups[selected[si]], params, t)
		sp.run()
		updates[si] = sp.end()
	})
	give(l, &l.spaces, spaces)
	return updates, nil
}
