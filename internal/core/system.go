// Package core implements the Group-FEL training loop of Algorithm 1: edge
// servers form client groups, the cloud samples groups per global round,
// selected groups run K group rounds of E local epochs, and updates are
// aggregated group-then-globally. Local updates are pluggable (plain SGD,
// FedProx, SCAFFOLD), sampling and aggregation weighting are pluggable
// (Sec. 6), and every run is metered by the Eq. 5 cost accountant.
//
// There is one round loop, Trainer.Step: Plan.Next draws S_t, an Executor
// trains the selected groups, Plan.Fold aggregates, accounting and evaluation
// follow. The engine here is the in-process Executor; internal/fednode's
// cloud steps the same Trainer over a networked one.
package core

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// System bundles the federated population: the train/test data, the
// partitioned clients, their edge assignment, and the model architecture.
//
// A System is either materialized (Train holds every assigned sample, client
// by client, and clients carry Indices into it) or virtual (Train is nil, vp
// synthesizes any client's samples on demand from (seed, client ID)). The
// two are interchangeable everywhere in the training loop, and at matched
// seeds they train bit-identically; only their memory profiles differ —
// O(assigned samples) versus O(population histograms + selected clients'
// samples).
type System struct {
	// Train is the sample pool of a materialized system, exactly Σ n_i rows
	// with each client's one contiguous range; nil when the system is
	// virtual.
	Train   *data.Dataset
	Test    *data.Dataset
	Clients []*data.Client
	Edges   [][]*data.Client
	Classes int
	// NewModel constructs the architecture with the given init seed. All
	// federated copies start from NewModel(ModelSeed).
	NewModel  func(seed uint64) *nn.Sequential
	ModelSeed uint64

	// vp synthesizes client samples for a virtual system.
	vp *data.VirtualPartition

	// views[id] is client id's full batch of a materialized system, a
	// read-only view into Train built once with the system and shared by
	// its SubSystems.
	views []clientBatch

	// workers is the pool Workers hands out, built on first use.
	workersOnce sync.Once
	workers     *WorkerPool
}

type clientBatch struct {
	x *tensor.Tensor
	y []int
}

// SystemConfig describes how to build a System.
type SystemConfig struct {
	Generator data.GeneratorConfig
	Partition data.PartitionConfig
	NumEdges  int
	TestSize  int
	NewModel  func(seed uint64) *nn.Sequential
	ModelSeed uint64
}

// NewSystem samples the dataset, partitions it across clients and edges,
// and prepares the model factory. The partition is drawn from a pool with
// MaxSamples of headroom per client, then compacted: Train keeps only the
// assigned rows, client by client in draw order, and each client's Indices
// is rewritten to its range there — the layout Materialize produces.
func NewSystem(cfg SystemConfig) *System {
	if cfg.NumEdges <= 0 {
		panic("fel: NumEdges must be positive")
	}
	if cfg.NewModel == nil {
		panic("fel: NewModel is required")
	}
	gen := data.NewGenerator(cfg.Generator)
	pool := gen.Sample(cfg.Partition.NumClients*cfg.Partition.MaxSamples, 0)
	test := gen.Sample(cfg.TestSize, 1)
	clients := data.DirichletPartition(pool, cfg.Partition)
	train := compactPartition(pool, clients)
	return &System{
		Train:     train,
		Test:      test,
		Clients:   clients,
		Edges:     data.SplitAcrossEdges(clients, cfg.NumEdges),
		Classes:   cfg.Generator.Classes,
		NewModel:  cfg.NewModel,
		ModelSeed: cfg.ModelSeed,
		views:     batchViews(train, clients),
	}
}

// compactPartition copies the clients' samples out of the partitioned pool
// into a dataset of exactly Σ n_i rows — clients in slice order, each
// client's rows in its Indices order — and rewrites every Indices, in place,
// to its contiguous range there. The pool's unassigned rows are left behind.
func compactPartition(pool *data.Dataset, clients []*data.Client) *data.Dataset {
	total := 0
	for _, c := range clients {
		total += len(c.Indices)
	}
	dim := pool.Dim()
	train := &data.Dataset{
		X:           make([]float64, total*dim),
		Y:           make([]int, total),
		SampleShape: pool.SampleShape,
		Classes:     pool.Classes,
	}
	off := 0
	for _, c := range clients {
		for j, i := range c.Indices {
			copy(train.X[off*dim:(off+1)*dim], pool.X[i*dim:(i+1)*dim])
			train.Y[off] = pool.Y[i]
			c.Indices[j] = off
			off++
		}
	}
	return train
}

// batchViews builds every client's full batch as a view into train, indexed
// by client ID. Each client's Indices must be one ascending contiguous
// range, as compactPartition and MaterializeAll lay them out. The views'
// capacities are capped, so an append cannot reach a neighbour's rows.
func batchViews(train *data.Dataset, clients []*data.Client) []clientBatch {
	ids := 0
	for _, c := range clients {
		ids = max(ids, c.ID+1)
	}
	views := make([]clientBatch, ids)
	dim := train.Dim()
	shape := append([]int{0}, train.SampleShape...)
	for _, c := range clients {
		lo := 0
		if len(c.Indices) > 0 {
			lo = c.Indices[0]
		}
		hi := lo + len(c.Indices)
		shape[0] = hi - lo
		views[c.ID] = clientBatch{
			x: tensor.FromSlice(train.X[lo*dim:hi*dim:hi*dim], shape...),
			y: train.Y[lo:hi:hi],
		}
	}
	return views
}

// NewVirtualSystem builds a System whose client population is virtual:
// only the per-client label histograms are resident (built once here, in
// parallel), and a client's samples are synthesized into per-worker buffers
// when — and only when — the client is selected for a round. cfg.TestSize
// still draws a materialized i.i.d. test set, exactly as NewSystem does.
//
// The partition semantics differ from NewSystem's in one documented way:
// each virtual client draws its label distribution independently
// (no shared per-label sample pool), which is what removes the
// O(NumClients × MaxSamples) dataset and lets populations reach millions.
func NewVirtualSystem(cfg SystemConfig) *System {
	if cfg.NumEdges <= 0 {
		panic("fel: NumEdges must be positive")
	}
	if cfg.NewModel == nil {
		panic("fel: NewModel is required")
	}
	vp := data.NewVirtualPartition(cfg.Generator, cfg.Partition)
	clients := vp.Clients()
	return &System{
		Test:      vp.Generator().Sample(cfg.TestSize, 1),
		Clients:   clients,
		Edges:     data.SplitAcrossEdges(clients, cfg.NumEdges),
		Classes:   cfg.Generator.Classes,
		NewModel:  cfg.NewModel,
		ModelSeed: cfg.ModelSeed,
		vp:        vp,
	}
}

// Virtual reports whether client samples are synthesized on demand rather
// than held in a materialized Train dataset.
func (s *System) Virtual() bool { return s.vp != nil }

// Materialize expands a virtual system into an equivalent materialized one:
// same model factory and test set, and a Train dataset holding exactly the
// samples every virtual client would synthesize (bit-identical features and
// labels, contiguous Indices). Training on the two systems under the same
// Config produces Float64bits-equal models — that equivalence is this
// method's reason to exist, and it is only meant for small populations.
// Calling it on a materialized system returns the receiver.
func (s *System) Materialize() *System {
	if s.vp == nil {
		return s
	}
	train, clients := s.vp.MaterializeAll()
	return &System{
		Train:     train,
		Test:      s.Test,
		Clients:   clients,
		Edges:     data.SplitAcrossEdges(clients, len(s.Edges)),
		Classes:   s.Classes,
		NewModel:  s.NewModel,
		ModelSeed: s.ModelSeed,
		views:     batchViews(train, clients),
	}
}

// SubSystem returns a System restricted to the given clients, sharing the
// train/test datasets and batch views (or virtual synthesis recipe) and
// model factory. Used by cluster-based methods (FedCLAR) that train
// separate models on client subsets.
func (s *System) SubSystem(clients []*data.Client, numEdges int) *System {
	return &System{
		Train:     s.Train,
		Test:      s.Test,
		Clients:   clients,
		Edges:     data.SplitAcrossEdges(clients, numEdges),
		Classes:   s.Classes,
		NewModel:  s.NewModel,
		ModelSeed: s.ModelSeed,
		vp:        s.vp,
		views:     s.views,
	}
}

// Workers returns the System's shared WorkerPool, cpu.Procs() wide and built
// on first use. Every in-process trainer outside the engine borrows from it —
// fednode's Client, however many of them one process hosts — so together
// they build at most cpu.Procs() models, never one per client. The engine keeps
// its own pool, sized by Config.MaxParallel.
func (s *System) Workers() *WorkerPool {
	s.workersOnce.Do(func() { s.workers = newWorkerPool(s, cpu.Procs()) })
	return s.workers
}

// ClientBatch returns the full batch (features + labels) of one client.
// Safe for concurrent use; callers must treat the result as read-only. On a
// materialized system it is the client's view into Train, the same tensor
// on every call and allocation-free; on a virtual system it is synthesized
// into fresh storage on every call — cold paths only. The engine's hot path
// goes through clientBatchInto with a per-worker buffer instead.
func (s *System) ClientBatch(c *data.Client) (*tensor.Tensor, []int) {
	if s.vp != nil {
		return s.vp.Materialize(c.ID)
	}
	v := &s.views[c.ID]
	return v.x, v.y
}

// clientBatchInto returns the client's batch for training, using buf as the
// backing storage when the system is virtual. The materialized path ignores
// buf and returns the client's view into Train — callers must treat the
// result as read-only in both cases.
func (s *System) clientBatchInto(c *data.Client, buf *data.SampleBuffer) (*tensor.Tensor, []int) {
	if s.vp != nil {
		return s.vp.MaterializeInto(c.ID, buf)
	}
	return s.ClientBatch(c)
}
