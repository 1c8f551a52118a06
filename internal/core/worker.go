package core

import (
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Worker is one training slot: a private model clone, whose layers recycle
// their buffers, the SGD scratch arena, and the sample buffer a virtual
// client materializes into — everything local training needs, so a warm
// Worker trains any client of its System without allocating. A client's
// training borrows one with System.BorrowWorker and gives it back with
// ReturnWorker once the update has been read out of Model. Load overwrites
// the whole model and Train reseeds the arena's RNG, so nothing one client
// leaves in a Worker reaches the next (determinism rule 1, engine.go).
type Worker struct {
	// Model is the worker's model clone. Between Load and ReturnWorker it
	// holds the borrowing client's parameters; read them with
	// ParamVectorInto.
	Model *nn.Sequential

	arena *sgdArena
	batch data.SampleBuffer
	delta []float64 // the engine's compressed-delta scratch
}

// Load readies the worker for client c of sys: the model is set to start and
// c's full batch is returned — its view into Train on a materialized System,
// synthesized into the worker's buffer on a virtual one. The batch is
// read-only and valid until the worker's next Load.
func (w *Worker) Load(sys *System, c *data.Client, start []float64) (*tensor.Tensor, []int) {
	w.Model.SetParamVector(start)
	return sys.clientBatchInto(c, &w.batch)
}

// Train runs u's local update over the loaded batch (x, y) on the worker's
// model, its shuffling RNG reseeded to seed — core.LocalSeed of the client's
// (round, group, client) — and its scratch from the worker's arena. ctx
// supplies the client id, anchor, epochs, batch size and learning rate; its
// Rng is replaced by the arena's.
func (w *Worker) Train(u LocalUpdater, x *tensor.Tensor, y []int, seed uint64, ctx LocalContext) {
	w.arena.rng.Reseed(seed)
	ctx.Rng, ctx.arena = w.arena.rng, w.arena
	u.LocalTrain(w.Model, x, y, ctx)
}
