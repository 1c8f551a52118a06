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
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// System bundles the federated population: the train/test data, the
// partitioned clients, their edge assignment, and the model architecture.
//
// A System is either materialized (Train holds every sample, clients carry
// Indices into it) or virtual (Train is nil, vp synthesizes any client's
// samples on demand from (seed, client ID)). The two are interchangeable
// everywhere in the training loop, and at matched seeds they train
// bit-identically; only their memory profiles differ — O(population ×
// samples) versus O(population histograms + selected clients' samples).
type System struct {
	// Train is the shared sample pool of a materialized system; nil when the
	// system is virtual.
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

	// cached per-client batches of a materialized system (built lazily,
	// guarded by mu).
	mu      sync.Mutex
	batches map[int]*clientBatch
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
// and prepares the model factory.
func NewSystem(cfg SystemConfig) *System {
	if cfg.NumEdges <= 0 {
		panic("fel: NumEdges must be positive")
	}
	if cfg.NewModel == nil {
		panic("fel: NewModel is required")
	}
	gen := data.NewGenerator(cfg.Generator)
	// Train pool sized for the partition with headroom.
	trainSize := cfg.Partition.NumClients * cfg.Partition.MaxSamples
	train := gen.Sample(trainSize, 0)
	test := gen.Sample(cfg.TestSize, 1)
	clients := data.DirichletPartition(train, cfg.Partition)
	return &System{
		Train:     train,
		Test:      test,
		Clients:   clients,
		Edges:     data.SplitAcrossEdges(clients, cfg.NumEdges),
		Classes:   cfg.Generator.Classes,
		NewModel:  cfg.NewModel,
		ModelSeed: cfg.ModelSeed,
	}
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
	}
}

// SubSystem returns a System restricted to the given clients, sharing the
// train/test datasets (or virtual synthesis recipe) and model factory. Used
// by cluster-based methods (FedCLAR) that train separate models on client
// subsets.
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
	}
}

// ClientBatch returns the full batch (features + labels) of one client.
// Safe for concurrent use. On a materialized system the batch is gathered
// once and cached forever; on a virtual system it is synthesized into fresh
// storage on every call — cold paths only. The engine's hot path goes
// through clientBatchInto with a per-worker buffer instead.
func (s *System) ClientBatch(c *data.Client) (*tensor.Tensor, []int) {
	if s.vp != nil {
		return s.vp.Materialize(c.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batches == nil {
		s.batches = make(map[int]*clientBatch)
	}
	if b, ok := s.batches[c.ID]; ok {
		return b.x, b.y
	}
	x, y := s.Train.Batch(c.Indices)
	s.batches[c.ID] = &clientBatch{x: x, y: y}
	return x, y
}

// clientBatchInto returns the client's batch for training, using buf as the
// backing storage when the system is virtual. The materialized path ignores
// buf and returns the shared cached batch — callers must treat the result
// as read-only in both cases.
func (s *System) clientBatchInto(c *data.Client, buf *data.SampleBuffer) (*tensor.Tensor, []int) {
	if s.vp != nil {
		return s.vp.MaterializeInto(c.ID, buf)
	}
	return s.ClientBatch(c)
}

// parallelEach runs fn(0..n-1) across at most workers goroutines. workers
// <= 0 defaults to procs(). Panics inside fn are re-raised on the
// caller goroutine so test failures surface normally.
func parallelEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = procs()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstPanic any
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if firstPanic == nil {
								firstPanic = r
							}
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstPanic != nil {
		panic(fmt.Sprintf("fel: worker panic: %v", firstPanic))
	}
}
