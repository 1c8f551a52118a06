package core

import (
	"sync"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Worker is one training slot: a private model clone with buffer reuse
// enabled, the SGD scratch arena, and the sample buffer a virtual client
// materializes into — everything local training needs, so a warm Worker
// trains any client of its System without allocating. Borrow one from a
// WorkerPool and give it back when the client's update has been read out of
// Model. Load overwrites the whole model and Train reseeds the arena's RNG,
// so nothing one client leaves in a Worker reaches the next (determinism
// rule 1, engine.go).
type Worker struct {
	// Model is the worker's model clone. Between Load and Release it holds
	// the borrowing client's parameters; read them with ParamVectorInto.
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

// WorkerPool is a bounded free list of Workers over one System: Workers are
// built lazily while fewer than its bound exist, and Acquire blocks once
// they are all out. The engine keeps one sized by Config.MaxParallel;
// System.Workers is the one every other in-process trainer shares.
type WorkerPool struct {
	sys *System
	max int

	mu      sync.Mutex
	created int
	free    chan *Worker
}

func newWorkerPool(sys *System, max int) *WorkerPool {
	return &WorkerPool{sys: sys, max: max, free: make(chan *Worker, max)}
}

// Acquire hands out a pooled Worker, creating one while fewer than the
// pool's bound exist, and blocking on the free list otherwise.
func (p *WorkerPool) Acquire() *Worker {
	select {
	case w := <-p.free:
		return w
	default:
	}
	p.mu.Lock()
	if p.created < p.max {
		p.created++
		p.mu.Unlock()
		m := p.sys.NewModel(p.sys.ModelSeed)
		m.EnableBufferReuse()
		return &Worker{Model: m, arena: newSGDArena()}
	}
	p.mu.Unlock()
	return <-p.free
}

// Release returns w to the pool. w must have come from this pool's Acquire,
// and its borrower may not touch it afterwards.
func (p *WorkerPool) Release(w *Worker) { p.free <- w }
