package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// TestPaperShapeTrajectoryPinned pins the final parameters of a short
// core.Train at the bench's train-paper configuration (MLP 24→32→10, batch
// 16, CoV-Grouping, ESRCoV sampling, stabilized weights, 5 % dropout, a
// regroup mid-run; the population is cut to 60 clients and 4 rounds so the
// test stays fast). The run lives on the tensor row kernels at their
// smallest shapes and on Sequential.Backward's parameter-gradient pass. The
// digest was recorded before those were rewritten; a change confined to
// internal/tensor or internal/nn must never need to re-record it.
func TestPaperShapeTrajectoryPinned(t *testing.T) {
	gen := data.FlatConfig(10, 24, 11)
	gen.Noise = 1.9
	sys := NewSystem(SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: 60, Alpha: 0.5,
			MinSamples: 20, MaxSamples: 200, MeanSamples: 110, StdSamples: 45,
			Seed: 12,
		},
		NumEdges: 3,
		TestSize: 200,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(24, []int{32}, 10, s)
		},
		ModelSeed: 13,
	})
	res := Train(sys, Config{
		GlobalRounds: 4, GroupRounds: 5, LocalEpochs: 2, SampleGroups: 12,
		BatchSize: 16, LR: 0.05, EvalEvery: 2, DropoutProb: 0.05, RegroupEvery: 2,
		Grouping:    grouping.CoVGrouping{Config: grouping.Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling:    sampling.ESRCoV,
		Weights:     sampling.Stabilized,
		Seed:        14,
		CostProfile: cost.CIFARProfile(),
		CostOps:     cost.DefaultOps(),
	})
	const pinned = "c96c08301504937b"
	if got := paramDigest(res.Params); got != pinned {
		t.Errorf("parameter digest %s, pinned %s (final accuracy %v)", got, pinned, res.FinalAccuracy)
	}
}
