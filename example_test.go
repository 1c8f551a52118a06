package groupfel_test

import (
	"fmt"

	groupfel "repro"
)

// ExampleTrain shows a minimal Group-FEL run: build a population, form
// CoV groups, train with ESRCoV sampling under the Eq. 5 cost meter.
func ExampleTrain() {
	sys := groupfel.NewSystem(groupfel.SystemConfig{
		Generator: groupfel.FlatTask(4, 10, 1),
		Partition: groupfel.PartitionConfig{
			NumClients: 12, Alpha: 0.3,
			MinSamples: 10, MaxSamples: 30, MeanSamples: 20, StdSamples: 5,
			Seed: 2,
		},
		NumEdges: 2,
		TestSize: 200,
		NewModel: func(seed uint64) *groupfel.Model {
			return groupfel.NewMLP(10, []int{16}, 4, seed)
		},
		ModelSeed: 7,
	})
	res := groupfel.Train(sys, groupfel.Config{
		GlobalRounds: 5, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 2,
		Grouping: groupfel.CoVGrouping{Config: groupfel.GroupingConfig{
			MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling:    groupfel.ESRCoV,
		Seed:        42,
		CostProfile: groupfel.CIFARProfile(),
		CostOps:     groupfel.DefaultCostOps(),
	})
	fmt.Println(res.RoundsRun)
	// Output: 5
}

// ExampleFormGroups demonstrates standalone CoV group formation and
// sampling-probability computation on client label histograms.
func ExampleFormGroups() {
	sys := groupfel.NewSystem(groupfel.SystemConfig{
		Generator: groupfel.FlatTask(3, 6, 9),
		Partition: groupfel.PartitionConfig{
			NumClients: 8, Alpha: 0.5,
			MinSamples: 10, MaxSamples: 20, MeanSamples: 15, StdSamples: 3,
			Seed: 10,
		},
		NumEdges: 1,
		TestSize: 50,
		NewModel: func(seed uint64) *groupfel.Model {
			return groupfel.NewLogistic(6, 3, seed)
		},
		ModelSeed: 7,
	})
	groups := groupfel.FormGroups(
		groupfel.CoVGrouping{Config: groupfel.GroupingConfig{MinGS: 4, MergeLeftover: true}},
		sys.Edges, sys.Classes, 3)
	probs := groupfel.SamplingProbabilities(groups, groupfel.RCoV)
	fmt.Println(len(groups) == len(probs))
	// Output: true
}
