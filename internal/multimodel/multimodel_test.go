package multimodel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/stats"
)

func newRNG(seed uint64) *stats.RNG { return stats.NewRNG(seed) }

func testSystem(seed uint64) *core.System {
	gen := data.FlatConfig(4, 8, seed)
	gen.Noise = 0.8
	return core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: 18, Alpha: 0.4,
			MinSamples: 8, MaxSamples: 24, MeanSamples: 15, StdSamples: 5,
			Seed: seed + 1,
		},
		NumEdges:  2,
		TestSize:  300,
		NewModel:  func(s uint64) *nn.Sequential { return nn.NewMLP(8, []int{10}, 4, s) },
		ModelSeed: 7,
	})
}

func testConfig(sched Scheduler) Config {
	return Config{
		Models: 2, GroupsPerModel: 2, Scheduler: sched,
		Train: core.Config{
			GlobalRounds: 8, GroupRounds: 2, LocalEpochs: 1,
			BatchSize: 8, LR: 0.05, SampleGroups: 2,
			Grouping: grouping.CoVGrouping{Config: grouping.Config{
				MinGS: 3, MaxCoV: 0.6, MergeLeftover: true}},
			Sampling:    sampling.ESRCoV,
			Seed:        5,
			CostProfile: cost.CIFARProfile(),
		},
	}
}

func TestMultiModelAllSchedulersLearn(t *testing.T) {
	for _, sched := range []Scheduler{Random, RoundRobin, NeedyFirst} {
		res, err := Train(testSystem(1), testConfig(sched))
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		if len(res.Models) != 2 {
			t.Fatalf("%v: got %d models", sched, len(res.Models))
		}
		if res.MeanAccuracy <= 0.3 {
			t.Errorf("%v: mean accuracy %.3f (chance 0.25)", sched, res.MeanAccuracy)
		}
		for m, st := range res.Models {
			if len(st.Rounds) != 8 {
				t.Fatalf("%v: model %d recorded %d rounds", sched, m, len(st.Rounds))
			}
			if res.Assignments[m] == 0 {
				t.Errorf("%v: model %d never trained", sched, m)
			}
		}
	}
}

func TestMultiModelGroupsNeverShared(t *testing.T) {
	// Within one round, a group serves at most one model: verify via the
	// assign helper directly.
	sys := testSystem(2)
	cfg := testConfig(NeedyFirst)
	groups := grouping.FormAll(cfg.Train.Grouping, sys.Edges, sys.Classes, newRNG(1))
	probs := sampling.Probabilities(groups, cfg.Train.Sampling)
	states := []*ModelState{{Accuracy: 0.2}, {Accuracy: 0.5}}
	for _, sched := range []Scheduler{Random, RoundRobin, NeedyFirst} {
		cfg.Scheduler = sched
		got := assign(cfg, states, groups, probs, newRNG(7))
		seen := map[int]bool{}
		for _, picks := range got {
			for _, gi := range picks {
				if seen[gi] {
					t.Fatalf("%v: group %d assigned twice", sched, gi)
				}
				seen[gi] = true
			}
		}
	}
}

func TestNeedyFirstPrioritizesWorstModel(t *testing.T) {
	sys := testSystem(3)
	cfg := testConfig(NeedyFirst)
	groups := grouping.FormAll(cfg.Train.Grouping, sys.Edges, sys.Classes, newRNG(2))
	probs := sampling.Probabilities(groups, cfg.Train.Sampling)
	// Model 1 is far behind; with GroupsPerModel covering most of the pool
	// it must receive the higher-probability (better-CoV) groups.
	states := []*ModelState{{Accuracy: 0.9}, {Accuracy: 0.1}}
	got := assign(cfg, states, groups, probs, newRNG(3))
	if len(got[1]) == 0 {
		t.Fatal("needy model got nothing")
	}
	// The needy model's first pick should be the top-probability group
	// (ESRCoV is near-deterministic top-1).
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	if got[1][0] != best {
		t.Fatalf("needy model's first pick %d, want top group %d", got[1][0], best)
	}
}

// TestTrainConfigErrors: a configuration no run can start from is an error,
// returned before anything trains, and names what is wrong.
func TestTrainConfigErrors(t *testing.T) {
	sys := testSystem(4)
	for _, tc := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Models = 0 }, "at least one model"},
		{func(c *Config) { c.GroupsPerModel = 0 }, "GroupsPerModel must be positive"},
		{func(c *Config) { c.Train.Grouping = nil }, "Train.Grouping is required"},
	} {
		cfg := testConfig(Random)
		tc.mutate(&cfg)
		res, err := Train(sys, cfg)
		if res != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Train = %v, %v; want an error containing %q", res, err, tc.want)
		}
	}
}

// TestMultiModelPanics: an unknown Scheduler is an internal invariant, not
// a configuration error, and panics.
func TestMultiModelPanics(t *testing.T) {
	cfg := testConfig(Random)
	cfg.Scheduler = Scheduler(99)
	defer func() {
		if recover() == nil {
			t.Error("an unknown scheduler did not panic")
		}
	}()
	res, err := Train(testSystem(4), cfg)
	t.Logf("Train returned %v, %v", res, err)
}

func TestSchedulerStrings(t *testing.T) {
	if Random.String() != "Random" || RoundRobin.String() != "RoundRobin" || NeedyFirst.String() != "NeedyFirst" {
		t.Fatal("scheduler names wrong")
	}
}
