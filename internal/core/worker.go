package core

import (
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Worker is one training slot: a private model clone, whose layers recycle
// their buffers, the SGD scratch arena, and the scratch a client's rows are
// drawn on — everything local training needs but the rows themselves, so a
// warm Worker trains any client of its System without allocating. A client's
// training borrows one with System.BorrowWorker and gives it back with
// ReturnWorker once the update has been read out of Model. Train overwrites
// the whole model and reseeds the arena's RNG, so nothing one client leaves
// in a Worker reaches the next (determinism rule 1, engine.go).
type Worker struct {
	// Model is the worker's model clone. Between Train and ReturnWorker it
	// holds the borrowing client's parameters; read them with
	// ParamVectorInto.
	Model *nn.Sequential

	arena *sgdArena
	draw  data.Scratch // the engine's client draws (groupSpace)
}

// Train sets the worker's model to ctx.Anchor and runs u's local update over
// the client's batch (x, y), its shuffling RNG reseeded to seed —
// core.LocalSeed of the client's (round, group, client) — and its scratch
// from the worker's arena. ctx supplies the client id, anchor, epochs, batch
// size and learning rate; its Rng is replaced by the arena's.
func (w *Worker) Train(u LocalUpdater, x *tensor.Tensor, y []int, seed uint64, ctx LocalContext) {
	w.Model.SetParamVector(ctx.Anchor)
	w.arena.rng.Reseed(seed)
	ctx.Rng, ctx.arena = w.arena.rng, w.arena
	u.LocalTrain(w.Model, x, y, ctx)
}
