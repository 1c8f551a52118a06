// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 7). Each runner returns a trace.Figure or trace.Table
// whose series mirror the paper's plot. Runners accept a Scale so the same
// code drives quick CI-sized runs (Small), demonstration runs (Medium), and
// paper-sized runs (Paper); EXPERIMENTS.md records the expected shapes.
package experiments

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// Task selects the workload family.
type Task int

// The paper's two tasks.
const (
	// CIFAR is the CIFAR-10 stand-in (10 classes; Figs. 9, 10, 12,
	// Table 1).
	CIFAR Task = iota
	// SC is the SpeechCommands stand-in (35 classes; Fig. 11).
	SC
)

// String names the task.
func (t Task) String() string {
	if t == SC {
		return "SC"
	}
	return "CIFAR"
}

// Profile returns the task's cost profile.
func (t Task) Profile() cost.Profile {
	if t == SC {
		return cost.SCProfile()
	}
	return cost.CIFARProfile()
}

// Scale bundles every size knob of an experiment.
type Scale struct {
	Name         string
	Clients      int
	Edges        int
	GlobalRounds int
	GroupRounds  int // K
	LocalEpochs  int // E
	SampleGroups int // S
	TestSize     int
	BatchSize    int
	LR           float64
	MinGS        int
	TargetGS     int
	MaxCoV       float64
	// ConvModels switches from flat-feature MLPs (fast) to the paper's
	// image-like convolutional models.
	ConvModels bool
	// CostBudget stops budgeted runs (0 = run all rounds).
	CostBudget float64
	// Per-client sample count distribution.
	MinSamples, MaxSamples  int
	MeanSamples, StdSamples float64
	// EvalEvery thins test-set evaluations.
	EvalEvery int
	// MaxParallel bounds the training engine's fan-out (0 = one worker per CPU,
	// 1 = serial reference path). Results are bit-identical at any value.
	MaxParallel int
	// Metrics, when non-nil, instruments every run trained at this scale. It
	// is not part of a run's description: a run Runs hands out again is not
	// retrained and emits nothing twice. felbench wires one registry per
	// invocation and writes it once, as metrics.json beside the CSVs.
	Metrics *metrics.Registry
}

// Small is the CI-sized scale: everything completes in seconds.
func Small() Scale {
	return Scale{
		Name: "small", Clients: 40, Edges: 2,
		GlobalRounds: 15, GroupRounds: 2, LocalEpochs: 1, SampleGroups: 4,
		TestSize: 400, BatchSize: 16, LR: 0.05,
		MinGS: 4, TargetGS: 5, MaxCoV: 0.5,
		MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
		EvalEvery: 1,
	}
}

// Medium is a demonstration scale: minutes, clearer separations.
func Medium() Scale {
	return Scale{
		Name: "medium", Clients: 120, Edges: 3,
		GlobalRounds: 60, GroupRounds: 5, LocalEpochs: 2, SampleGroups: 8,
		TestSize: 1000, BatchSize: 16, LR: 0.1,
		MinGS: 5, TargetGS: 6, MaxCoV: 0.5,
		MinSamples: 15, MaxSamples: 80, MeanSamples: 45, StdSamples: 18,
		EvalEvery: 2,
	}
}

// Paper mirrors the paper's setup: 300 clients, 3 edges, K=5, E=2,
// MinGS=5, S=12, budget 10⁶, convolutional models. Hours of compute.
func Paper() Scale {
	return Scale{
		Name: "paper", Clients: 300, Edges: 3,
		GlobalRounds: 200, GroupRounds: 5, LocalEpochs: 2, SampleGroups: 12,
		TestSize: 2000, BatchSize: 32, LR: 0.05,
		MinGS: 5, TargetGS: 6, MaxCoV: 0.5,
		ConvModels: true, CostBudget: 1e6,
		MinSamples: 20, MaxSamples: 200, MeanSamples: 110, StdSamples: 45,
		EvalEvery: 5,
	}
}

// NewSystem builds the federated population for a task at this scale.
func (s Scale) NewSystem(task Task, alpha float64, seed uint64) *core.System {
	var gen data.GeneratorConfig
	var newModel func(uint64) *nn.Sequential
	switch task {
	case CIFAR:
		if s.ConvModels {
			gen = data.SynthCIFARConfig(seed)
			newModel = func(ms uint64) *nn.Sequential { return nn.NewResNetLite(3, 8, 8, 10, ms) }
		} else {
			gen = data.FlatConfig(10, 24, seed)
			// Hard enough that accuracy is still climbing after the scale's
			// round budget — the regime where grouping and sampling matter.
			gen.Noise = 1.9
			newModel = func(ms uint64) *nn.Sequential { return nn.NewMLP(24, []int{32}, 10, ms) }
		}
	case SC:
		if s.ConvModels {
			gen = data.SynthSpeechConfig(seed)
			newModel = func(ms uint64) *nn.Sequential { return nn.NewCNN5(1, 12, 12, 35, ms) }
		} else {
			gen = data.FlatConfig(35, 32, seed)
			gen.Noise = 1.5
			newModel = func(ms uint64) *nn.Sequential { return nn.NewMLP(32, []int{48}, 35, ms) }
		}
	default:
		panic("experiments: unknown task")
	}
	return core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: s.Clients, Alpha: alpha,
			MinSamples: s.MinSamples, MaxSamples: s.MaxSamples,
			MeanSamples: s.MeanSamples, StdSamples: s.StdSamples,
			Seed: seed + 101,
		},
		NumEdges:  s.Edges,
		TestSize:  s.TestSize,
		NewModel:  newModel,
		ModelSeed: 7,
	})
}

// BaseConfig returns the core.Config shared by all methods at this scale.
func (s Scale) BaseConfig(task Task, seed uint64) core.Config {
	return core.Config{
		GlobalRounds: s.GlobalRounds,
		GroupRounds:  s.GroupRounds,
		LocalEpochs:  s.LocalEpochs,
		BatchSize:    s.BatchSize,
		LR:           s.LR,
		SampleGroups: s.SampleGroups,
		Seed:         seed,
		CostProfile:  task.Profile(),
		CostOps:      cost.DefaultOps(),
		CostBudget:   s.CostBudget,
		EvalEvery:    s.EvalEvery,
		MaxParallel:  s.MaxParallel,
		Metrics:      s.Metrics,
	}
}
