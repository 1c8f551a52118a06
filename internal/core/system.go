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
	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// System bundles the federated population: the test data, the partitioned
// clients, their edge assignment, and the model architecture.
//
// A System holds no client rows, only its population's recipe (data.Rows):
// the assigned rows' stream marks (NewSystem) or a virtual population's seeds
// (NewVirtualSystem). Every consumer draws a client from it into storage it
// owns — the engine's group-round machine once a run, a fednode client once
// a job, ClientBatch afresh. A virtual System trains bit-identically to its
// Materialize copy.
type System struct {
	Test    *data.Dataset
	Clients []*data.Client
	Edges   [][]*data.Client
	Classes int
	// NewModel constructs the architecture with the given init seed. All
	// federated copies start from NewModel(ModelSeed).
	NewModel  func(seed uint64) *nn.Sequential
	ModelSeed uint64

	// rows is the population's recipe, which clients are drawn from by ID.
	rows data.Rows

	// lend lends every run on the system its storage (lender.go).
	lend lender
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
// and prepares the model factory. The partition is drawn on the labels of a
// pool with MaxSamples of headroom per client (data.Generator.Labels), whose
// features are never drawn, and the System keeps only each assigned row's
// stream mark (data.Generator.Marked): a client draws, bit for bit, the rows
// the materialized pool would have held.
func NewSystem(cfg SystemConfig) *System {
	cfg.check()
	gen := data.NewGenerator(cfg.Generator)
	// The pool's labels and the test set are two streams of gen, drawn side
	// by side.
	var labels, test *data.Dataset
	var marks []stats.Mark
	cpu.Each(2, 0, func(_, i int) {
		if i == 0 {
			labels, marks = gen.Labels(cfg.Partition.NumClients*cfg.Partition.MaxSamples, 0)
		} else {
			test = gen.Sample(cfg.TestSize, 1)
		}
	})
	clients, rows := data.DirichletPartition(labels, cfg.Partition)
	return cfg.system(test, clients, gen.Marked(marks, rows, clients))
}

// NewVirtualSystem builds a System whose client population is virtual:
// only the per-client label histograms are resident (built once here, in
// parallel), and a client's samples are synthesized from (seed, client ID)
// when — and only when — a consumer trains it. cfg.TestSize still draws a
// materialized i.i.d. test set, exactly as NewSystem does.
//
// The partition semantics differ from NewSystem's in one documented way:
// each virtual client draws its label distribution independently
// (no shared per-label sample pool), which is what removes the
// O(NumClients × MaxSamples) label pool and lets populations reach millions.
func NewVirtualSystem(cfg SystemConfig) *System {
	cfg.check()
	vp := data.NewVirtualPartition(cfg.Generator, cfg.Partition)
	return cfg.system(vp.Generator().Sample(cfg.TestSize, 1), vp.Clients(), vp)
}

// check panics on a configuration no System can be built from.
func (cfg SystemConfig) check() {
	if cfg.NumEdges <= 0 {
		panic("fel: NumEdges must be positive")
	}
	if cfg.NewModel == nil {
		panic("fel: NewModel is required")
	}
}

// system assembles the System of clients drawn from rows.
func (cfg SystemConfig) system(test *data.Dataset, clients []*data.Client, rows data.Rows) *System {
	return &System{
		Test:      test,
		Clients:   clients,
		Edges:     data.SplitAcrossEdges(clients, cfg.NumEdges),
		Classes:   cfg.Generator.Classes,
		NewModel:  cfg.NewModel,
		ModelSeed: cfg.ModelSeed,
		rows:      rows,
	}
}

// Virtual reports whether client samples are synthesized from (seed, client
// ID) rather than drawn from a partition's marks or held rows.
func (s *System) Virtual() bool {
	_, ok := s.rows.(*data.VirtualPartition)
	return ok
}

// Materialize expands a virtual system into an equivalent materialized one:
// same model factory and test set, and a recipe holding exactly the rows
// every virtual client would synthesize (data.VirtualPartition.MaterializeAll).
// Training on the two systems under the same Config produces Float64bits-equal
// models — that equivalence is this method's reason to exist, and it is only
// meant for small populations. Calling it on a non-virtual system returns the
// receiver.
func (s *System) Materialize() *System {
	vp, ok := s.rows.(*data.VirtualPartition)
	if !ok {
		return s
	}
	rows, clients := vp.MaterializeAll()
	m := s.SubSystem(clients, len(s.Edges))
	m.rows = rows
	return m
}

// SubSystem returns a System restricted to the given clients, sharing the
// test set, the recipe and the model factory. Used by cluster-based methods
// (FedCLAR) that train separate models on client subsets.
func (s *System) SubSystem(clients []*data.Client, numEdges int) *System {
	return &System{
		Test:      s.Test,
		Clients:   clients,
		Edges:     data.SplitAcrossEdges(clients, numEdges),
		Classes:   s.Classes,
		NewModel:  s.NewModel,
		ModelSeed: s.ModelSeed,
		rows:      s.rows,
	}
}

// ClientBatch draws the full batch (features + labels) of one client into
// fresh storage, the same bits every call: a cold path. Safe for concurrent
// use.
func (s *System) ClientBatch(c *data.Client) (*tensor.Tensor, []int) {
	x, y := tensor.New(append([]int{c.N}, s.Test.SampleShape...)...), make([]int, c.N)
	s.rows.DrawInto(c.ID, x.Data, y, new(data.Scratch))
	return x, y
}
