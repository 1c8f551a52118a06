package core

import (
	"slices"

	"repro/internal/async"
	"repro/internal/cpu"
	"repro/internal/grouping"
	"repro/internal/stats"
)

// Executor is the seam under the Plan: everything below "run these groups
// from params at round t" (Alg. 1 lines 7–14). Trainer.Step, the only round
// loop, knows nothing else about where clients train — the engine
// (NewExecutor) trains them on this process's worker pool, fednode's cloud
// over its edge connections.
type Executor interface {
	// RunGroups trains groups[selected[si]] from params (read-only) for round
	// t and returns one update per selection slot, in selection order. The
	// result and all it references belong to the executor and are valid until
	// its next call; the caller may overwrite the Params vectors (the global
	// fold uses them as scratch) but must not keep them.
	RunGroups(t int, groups []*grouping.Group, selected []int, params []float64) ([]GroupUpdate, error)
}

// GroupUpdate is one selected group's result for a global round.
type GroupUpdate struct {
	// Params is the group model after its K group rounds.
	Params []float64
	// Drops counts client updates lost; UplinkBytes totals the client→edge
	// payload of the updates that arrived.
	Drops       int
	UplinkBytes int64
	// Ticks is the group's time on the logical clock (0 without a delay
	// model); the rest is semi-sync's: deadline misses and discarded updates.
	Ticks                 int64
	Carryovers, LateDrops int
}

// RunGroups trains the selected groups in parallel, at most max at once,
// each on its goroutine's group-round machine and each update kept in its
// selection slot; the mode only picks the machine's flush trigger.
func (e *engine) RunGroups(t int, groups []*grouping.Group, selected []int, params []float64) ([]GroupUpdate, error) {
	if n := len(selected) - len(e.slots); n > 0 {
		e.slots = append(e.slots, make([][]float64, n)...)
	}
	for len(e.spaces) < min(e.max, len(selected)) {
		e.spaces = append(e.spaces, &groupSpace{e: e, dropRng: stats.NewRNG(0), delayRng: stats.NewRNG(0)})
	}
	e.updates = slices.Grow(e.updates[:0], len(selected))[:len(selected)]
	updates := e.updates
	cpu.Each(len(selected), e.max, func(w, si int) {
		sp := e.spaces[w]
		sp.begin(e.slots[si], groups[selected[si]], params, t)
		if e.cfg.Async.Mode == async.SemiSync {
			sp.runDeadlines()
		} else {
			sp.runBuffered()
		}
		e.asyncTicks.Add(sp.ticks)
		updates[si] = sp.end()
		e.slots[si] = updates[si].Params
	})
	return updates, nil
}
