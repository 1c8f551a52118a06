package core

import (
	"repro/internal/cpu"
	"repro/internal/tensor"
)

// This file is the group round: lines 8–14 of Alg. 1, K bulk-synchronous
// rounds per selected group (state in groupSpace, engine.go). Nothing depends
// on the order in which members finish, so a run replays bit-identically at
// any MaxParallel.

// run trains the group for cfg.GroupRounds rounds. Round k draws every
// member's dropout flag serially in client order from the group's dropout
// stream (rule 2), trains the members from the current group model on the
// fan-out (rule 1), and folds the survivors' updates into the group model
// (rule 4), which round k+1 trains from.
func (sp *groupSpace) run() {
	e := sp.e
	cfg := &e.cfg
	for k := 0; k < cfg.GroupRounds; k++ {
		for i := range sp.dropped {
			sp.dropped[i] = cfg.DropoutProb > 0 && sp.dropRng.Float64() < cfg.DropoutProb
		}
		cpu.Each(len(sp.dropped), e.max, func(_, i int) {
			w := e.sys.BorrowWorker()
			defer e.sys.ReturnWorker(w)
			e.trainClient(w, sp, i, k)
		})
		sp.fold()
	}
}

// fold averages the survivors' updates into the group model, n_i-weighted
// (Alg. 1 line 14), by the fixed-pairing tree over their slots in client
// order. The tree overwrites the slots it folds, which is safe: a slot is
// fully rewritten by trainClient before it is read again. When every member
// dropped out the group model carries over.
func (sp *groupSpace) fold() {
	e := sp.e
	aggSpan := e.groupAggHist(sp.g.Edge).Start()
	live := 0
	wsum := 0.0
	for i, c := range sp.g.Clients {
		if sp.dropped[i] {
			sp.drops++
			continue
		}
		w := float64(c.NumSamples())
		sp.nodes[live] = sp.slots[i]
		sp.nodeW[live] = w
		wsum += w
		live++
	}
	sp.bytes += int64(8 * len(sp.group) * live)
	if wsum > 0 {
		root := treeFold(sp.nodes, sp.nodeW, live, e.max)
		tensor.ScaleInto(1/wsum, root, sp.group)
	}
	aggSpan.End()
}
