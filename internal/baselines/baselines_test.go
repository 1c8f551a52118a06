package baselines

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/stats"
)

func newTestRNG() *stats.RNG { return stats.NewRNG(1) }

func testSystem(numClients int, alpha float64, seed uint64) *core.System {
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	return core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: numClients, Alpha: alpha,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: seed + 1,
		},
		NumEdges:  2,
		TestSize:  300,
		NewModel:  func(s uint64) *nn.Sequential { return nn.NewMLP(10, []int{16}, 4, s) },
		ModelSeed: 7,
	})
}

func baseConfig() core.Config {
	return core.Config{
		GlobalRounds: 8, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 3,
		Seed:        11,
		CostProfile: cost.CIFARProfile(),
	}
}

func TestConfigureAllMethods(t *testing.T) {
	opts := DefaultOptions(12, 3)
	base := baseConfig()
	for _, m := range All() {
		cfg := Configure(m, base, opts)
		if cfg.Grouping == nil {
			t.Errorf("%s: nil grouping", m)
		}
		switch m {
		case GroupFEL:
			if cfg.Sampling != sampling.ESRCoV {
				t.Errorf("Group-FEL should use ESRCoV")
			}
			if _, ok := cfg.Grouping.(grouping.CoVGrouping); !ok {
				t.Errorf("Group-FEL should use CoVG")
			}
		case Scaffold:
			if !cfg.CostOps.Scaffold {
				t.Errorf("SCAFFOLD must pay double-payload SecAgg")
			}
			if _, ok := cfg.Local.(*core.ScaffoldUpdater); !ok {
				t.Errorf("SCAFFOLD local updater missing")
			}
		case FedProx:
			if _, ok := cfg.Local.(core.ProxUpdater); !ok {
				t.Errorf("FedProx local updater missing")
			}
		case OUEA:
			if _, ok := cfg.Grouping.(grouping.CDGrouping); !ok {
				t.Errorf("OUEA should use CDG")
			}
		case SHARE:
			if _, ok := cfg.Grouping.(grouping.KLDGrouping); !ok {
				t.Errorf("SHARE should use KLDG")
			}
		default:
			if cfg.Sampling != sampling.Random {
				t.Errorf("%s should use Random sampling", m)
			}
		}
	}
}

func TestConfigureUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Configure(Name("nope"), baseConfig(), DefaultOptions(10, 3))
}

func TestRunEveryMethodLearns(t *testing.T) {
	opts := DefaultOptions(12, 3)
	for _, m := range All() {
		sys := testSystem(12, 0.4, 21)
		res := Run(m, sys, baseConfig(), opts)
		if res == nil || len(res.Records) == 0 {
			t.Fatalf("%s: empty result", m)
		}
		if res.FinalAccuracy <= 0.3 {
			t.Errorf("%s: final accuracy %.3f (chance 0.25)", m, res.FinalAccuracy)
		}
	}
}

func TestFedCLARTwoPhaseRecords(t *testing.T) {
	sys := testSystem(12, 0.3, 31)
	base := baseConfig()
	opts := DefaultOptions(12, 3)
	opts.FedCLARClusterRound = 4
	res := Run(FedCLAR, sys, base, opts)
	if len(res.Records) != base.GlobalRounds {
		t.Fatalf("got %d records, want %d", len(res.Records), base.GlobalRounds)
	}
	// Cost keeps accumulating across the phase boundary.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Cost <= res.Records[i-1].Cost {
			t.Fatalf("cost not increasing at round %d", i)
		}
	}
	// Rounds numbered consecutively.
	for i, r := range res.Records {
		if r.Round != i {
			t.Fatalf("round %d labeled %d", i, r.Round)
		}
	}
}

func TestFedCLARClusterRoundDefault(t *testing.T) {
	sys := testSystem(10, 0.3, 41)
	base := baseConfig()
	base.GlobalRounds = 6
	opts := DefaultOptions(10, 3)
	opts.FedCLARClusterRound = 0 // default: half
	res := TrainFedCLAR(sys, Configure(FedCLAR, base, opts), opts)
	if res.RoundsRun != 6 || len(res.Records) != 6 {
		t.Fatalf("rounds=%d records=%d", res.RoundsRun, len(res.Records))
	}
}

func TestKmeansCosine(t *testing.T) {
	// Two obvious direction clusters.
	vecs := [][]float64{
		{1, 0}, {0.9, 0.1}, {1, -0.1},
		{-1, 0}, {-0.9, 0.1}, {-1, -0.1},
	}
	assign := kmeansCosine(vecs, 2, newTestRNG())
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("first cluster split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Fatalf("second cluster split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Fatalf("clusters merged: %v", assign)
	}
}

func TestKmeansCosineDegenerate(t *testing.T) {
	vecs := [][]float64{{1, 0}, {0, 1}}
	assign := kmeansCosine(vecs, 5, newTestRNG()) // k > n clamps
	if len(assign) != 2 {
		t.Fatal("assignment length wrong")
	}
	zero := [][]float64{{0, 0}, {0, 0}}
	if got := kmeansCosine(zero, 2, newTestRNG()); len(got) != 2 {
		t.Fatal("zero vectors should still be assigned")
	}
}

func TestRecordAtClamps(t *testing.T) {
	res := &core.Result{Records: []core.RoundRecord{{Round: 0, Accuracy: 0.5}}}
	if recordAt(res, 5).Accuracy != 0.5 {
		t.Fatal("clamp failed")
	}
	if recordAt(&core.Result{}, 0).Accuracy != -1 {
		t.Fatal("empty result should yield sentinel")
	}
}
