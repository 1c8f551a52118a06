package groupfel_test

import (
	"testing"

	groupfel "repro"
)

func TestPublicAPIDistributedRound(t *testing.T) {
	sys := newSystem(21)
	groups := groupfel.FormGroups(
		groupfel.CoVGrouping{Config: groupfel.GroupingConfig{MinGS: 3, MaxCoV: 0.6, MergeLeftover: true}},
		sys.Edges, sys.Classes, 4)
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	params := sys.NewModel(sys.ModelSeed).ParamVector()
	res, err := groupfel.RunDistributedRound(sys, groups, []int{0}, params,
		groupfel.DistributedRoundConfig{
			GroupRounds: 2, LocalEpochs: 1, BatchSize: 8, LR: 0.05, Seed: 1,
			Topology: groupfel.DefaultTopology(),
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallClock <= 0 || len(res.Params) != len(params) {
		t.Fatalf("bad result: wall=%v params=%d", res.WallClock, len(res.Params))
	}
	if res.MaskStreams == 0 {
		t.Fatal("secure aggregation did not run")
	}
}

func TestPublicAPIDropoutSimulation(t *testing.T) {
	sys := newSystem(23)
	cfg := baseConfig()
	cfg.GlobalRounds = 5
	cfg.DropoutProb = 0.3
	res := groupfel.Train(sys, cfg)
	if res.Dropouts == 0 {
		t.Fatal("no dropouts simulated")
	}
}
