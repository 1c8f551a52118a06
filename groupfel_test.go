package groupfel_test

import (
	"math"
	"testing"

	groupfel "repro"
)

// newSystem builds a small population through the public API only.
func newSystem(seed uint64) *groupfel.System {
	gen := groupfel.FlatTask(4, 10, seed)
	gen.Noise = 0.8
	return groupfel.NewSystem(groupfel.SystemConfig{
		Generator: gen,
		Partition: groupfel.PartitionConfig{
			NumClients: 16, Alpha: 0.3,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: seed + 1,
		},
		NumEdges: 2,
		TestSize: 300,
		NewModel: func(s uint64) *groupfel.Model {
			return groupfel.NewMLP(10, []int{16}, 4, s)
		},
		ModelSeed: 7,
	})
}

func baseConfig() groupfel.Config {
	return groupfel.Config{
		GlobalRounds: 10, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 3,
		Grouping: groupfel.CoVGrouping{Config: groupfel.GroupingConfig{
			MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling:    groupfel.ESRCoV,
		Weights:     groupfel.BiasedWeights,
		Seed:        42,
		CostProfile: groupfel.CIFARProfile(),
		CostOps:     groupfel.DefaultCostOps(),
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := newSystem(1)
	res := groupfel.Train(sys, baseConfig())
	if res.FinalAccuracy <= 0.35 {
		t.Fatalf("accuracy %.3f (chance 0.25)", res.FinalAccuracy)
	}
	if res.TotalCost <= 0 {
		t.Fatal("no cost recorded")
	}
	if len(res.Groups) == 0 || len(res.Probs) != len(res.Groups) {
		t.Fatal("groups/probs missing")
	}
}

func TestPublicAPIFormationAndSampling(t *testing.T) {
	sys := newSystem(2)
	groups := groupfel.FormGroups(
		groupfel.CoVGrouping{Config: groupfel.GroupingConfig{MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}},
		sys.Edges, sys.Classes, 9)
	if len(groups) == 0 {
		t.Fatal("no groups formed")
	}
	p := groupfel.SamplingProbabilities(groups, groupfel.ESRCoV)
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// CoV accessor agrees with the helper.
	for _, g := range groups {
		if g.CoV() != groupfel.GroupCoV(g.Counts) {
			t.Fatal("CoV helper mismatch")
		}
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	opts := groupfel.DefaultBaselineOptions(16, 3)
	for _, m := range groupfel.AllBaselines() {
		sys := newSystem(3)
		cfg := baseConfig()
		cfg.GlobalRounds = 6
		res := groupfel.RunBaseline(m, sys, cfg, opts)
		if len(res.Records) == 0 {
			t.Fatalf("%s: no records", m)
		}
	}
}

func TestPublicAPISecureAggregation(t *testing.T) {
	const n, dim = 5, 20
	q := groupfel.DefaultQuantizer()
	sess := groupfel.NewSecAggSession(n, dim, 3, 7, q)
	masked := make([][]uint64, n)
	want := make([]float64, dim)
	for i := 0; i < n; i++ {
		update := make([]float64, dim)
		for d := range update {
			update[d] = float64(i) * 0.01
			want[d] += update[d]
		}
		masked[i] = sess.MaskedUpdate(i, update)
	}
	got, err := sess.Aggregate(masked, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if math.Abs(got[d]-want[d]) > 1e-4 {
			t.Fatalf("secure sum[%d] = %v, want %v", d, got[d], want[d])
		}
	}
}

func TestPublicAPIBackdoorDetection(t *testing.T) {
	updates := make([][]float64, 8)
	for i := range updates {
		updates[i] = make([]float64, 10)
		for d := range updates[i] {
			updates[i][d] = 1 + 0.01*float64(i)
		}
	}
	// Flip the last one.
	for d := range updates[7] {
		updates[7][d] = -5
	}
	res := groupfel.DetectBackdoors(updates, groupfel.DefaultBackdoorConfig())
	found := false
	for _, f := range res.Flagged {
		if f == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("poisoned update not flagged: %v", res.Flagged)
	}
}

func TestPublicAPITheory(t *testing.T) {
	sys := newSystem(4)
	groups := groupfel.FormGroups(
		groupfel.CoVGrouping{Config: groupfel.GroupingConfig{MinGS: 3, MergeLeftover: true}},
		sys.Edges, sys.Classes, 5)
	p := groupfel.SamplingProbabilities(groups, groupfel.RCoV)
	params := groupfel.TheoryFromSystem(groups, p, groupfel.TheoryParams{
		Eta: 0.01, T: 100, K: 5, E: 2, L: 1,
		Sigma2: 1, Zeta2: 1, F0MinusFStar: 10, S: 3,
	})
	b := groupfel.ConvergenceBound(params)
	if b <= 0 || math.IsNaN(b) {
		t.Fatalf("bound = %v", b)
	}
}

func TestPublicAPIEvaluate(t *testing.T) {
	sys := newSystem(5)
	m := sys.NewModel(sys.ModelSeed)
	acc, loss := groupfel.Evaluate(m, sys.Test, 0)
	if acc < 0 || acc > 1 || loss <= 0 {
		t.Fatalf("acc=%v loss=%v", acc, loss)
	}
}
