package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// testSystem builds a small, fast federated population.
func testSystem(numClients int, alpha float64, seed uint64) *System {
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	part := data.PartitionConfig{
		NumClients: numClients, Alpha: alpha,
		MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
		Seed: seed + 1,
	}
	return NewSystem(SystemConfig{
		Generator: gen,
		Partition: part,
		NumEdges:  2,
		TestSize:  400,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{16}, 4, s)
		},
		ModelSeed: 7,
	})
}

func testConfig() Config {
	return Config{
		GlobalRounds: 10, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 3,
		Grouping:    grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling:    sampling.ESRCoV,
		Weights:     sampling.Biased,
		Seed:        42,
		CostProfile: cost.CIFARProfile(),
		CostOps:     cost.DefaultOps(),
	}
}

func TestTrainImprovesAccuracy(t *testing.T) {
	sys := testSystem(12, 0.5, 1)
	res := Train(sys, testConfig())
	if res.FinalAccuracy <= 0.4 {
		t.Fatalf("final accuracy %.3f, want > 0.4 (chance = 0.25)", res.FinalAccuracy)
	}
	if len(res.Records) != 10 {
		t.Fatalf("got %d records", len(res.Records))
	}
	first := res.Records[0]
	last := res.Records[len(res.Records)-1]
	if last.Accuracy <= first.Accuracy-0.05 {
		t.Fatalf("accuracy regressed: %.3f -> %.3f", first.Accuracy, last.Accuracy)
	}
}

func TestTrainDeterministic(t *testing.T) {
	sysA := testSystem(10, 0.5, 2)
	sysB := testSystem(10, 0.5, 2)
	cfg := testConfig()
	cfg.GlobalRounds = 4
	a := Train(sysA, cfg)
	b := Train(sysB, cfg)
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("non-deterministic accuracy: %v vs %v", a.FinalAccuracy, b.FinalAccuracy)
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			t.Fatal("non-deterministic final parameters")
		}
	}
}

func TestTrainCostMonotoneAndCharged(t *testing.T) {
	sys := testSystem(10, 0.5, 3)
	cfg := testConfig()
	cfg.GlobalRounds = 5
	res := Train(sys, cfg)
	prev := 0.0
	for _, r := range res.Records {
		if r.Cost <= prev {
			t.Fatalf("cost not strictly increasing at round %d: %v <= %v", r.Round, r.Cost, prev)
		}
		prev = r.Cost
	}
	if res.TotalCost != prev {
		t.Fatalf("TotalCost %v != last record %v", res.TotalCost, prev)
	}
}

func TestTrainCostBudgetStopsEarly(t *testing.T) {
	sys := testSystem(10, 0.5, 4)
	cfg := testConfig()
	cfg.GlobalRounds = 100
	// Run once to learn the per-round cost, then budget for ~3 rounds.
	probe := cfg
	probe.GlobalRounds = 1
	one := Train(sys, probe)
	cfg.CostBudget = one.TotalCost * 3.5
	res := Train(sys, cfg)
	if res.RoundsRun >= 100 || res.RoundsRun < 3 {
		t.Fatalf("budget run executed %d rounds", res.RoundsRun)
	}
}

func TestTrainEvalEvery(t *testing.T) {
	sys := testSystem(10, 0.5, 5)
	cfg := testConfig()
	cfg.GlobalRounds = 6
	cfg.EvalEvery = 3
	res := Train(sys, cfg)
	for _, r := range res.Records {
		evaluated := r.Accuracy >= 0
		want := r.Round%3 == 0 || r.Round == 5
		if evaluated != want {
			t.Fatalf("round %d evaluated=%v, want %v", r.Round, evaluated, want)
		}
	}
}

func TestTrainWeightSchemes(t *testing.T) {
	for _, scheme := range []sampling.WeightScheme{sampling.Biased, sampling.Unbiased, sampling.Stabilized} {
		sys := testSystem(10, 0.5, 6)
		cfg := testConfig()
		cfg.GlobalRounds = 4
		cfg.Weights = scheme
		// Unbiased with ESRCoV explodes by design; use RCoV for that case.
		if scheme == sampling.Unbiased {
			cfg.Sampling = sampling.RCoV
		}
		res := Train(sys, cfg)
		if math.IsNaN(res.FinalAccuracy) {
			t.Fatalf("%v: NaN accuracy", scheme)
		}
	}
}

func TestTrainFedProx(t *testing.T) {
	sys := testSystem(10, 0.3, 7)
	cfg := testConfig()
	cfg.GlobalRounds = 6
	cfg.Local = ProxUpdater{Mu: 0.1}
	res := Train(sys, cfg)
	if res.FinalAccuracy <= 0.3 {
		t.Fatalf("FedProx accuracy %.3f", res.FinalAccuracy)
	}
}

func TestTrainScaffold(t *testing.T) {
	sys := testSystem(10, 0.3, 8)
	cfg := testConfig()
	cfg.GlobalRounds = 6
	cfg.Local = &ScaffoldUpdater{NumClients: len(sys.Clients)}
	cfg.CostOps = cost.OpSet{SecAgg: true, Backdoor: true, Scaffold: true}
	res := Train(sys, cfg)
	if res.FinalAccuracy <= 0.3 {
		t.Fatalf("SCAFFOLD accuracy %.3f", res.FinalAccuracy)
	}
}

func TestScaffoldCostsMoreThanSGD(t *testing.T) {
	sys := testSystem(10, 0.5, 9)
	cfg := testConfig()
	cfg.GlobalRounds = 3
	plain := Train(sys, cfg)
	cfg.Local = &ScaffoldUpdater{NumClients: len(sys.Clients)}
	cfg.CostOps = cost.OpSet{SecAgg: true, Backdoor: true, Scaffold: true}
	sc := Train(testSystem(10, 0.5, 9), cfg)
	if sc.TotalCost <= plain.TotalCost {
		t.Fatalf("SCAFFOLD cost %v should exceed SGD cost %v", sc.TotalCost, plain.TotalCost)
	}
}

func TestTrainRegroup(t *testing.T) {
	sys := testSystem(12, 0.5, 10)
	cfg := testConfig()
	cfg.GlobalRounds = 6
	cfg.RegroupEvery = 2
	res := Train(sys, cfg)
	if res.RoundsRun != 6 {
		t.Fatalf("regroup run stopped at %d", res.RoundsRun)
	}
	if res.FinalAccuracy <= 0.3 {
		t.Fatalf("regroup accuracy %.3f", res.FinalAccuracy)
	}
}

func TestTrainValidation(t *testing.T) {
	sys := testSystem(8, 0.5, 11)
	good := testConfig()
	cases := []func(*Config){
		func(c *Config) { c.GlobalRounds = 0 },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.SampleGroups = 0 },
		func(c *Config) { c.Grouping = nil },
		func(c *Config) { c.CostProfile = cost.Profile{} },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			Train(sys, cfg)
		}()
	}
}

func TestEvaluateKnownModel(t *testing.T) {
	// A logistic model with huge weights on a one-feature-per-class dataset
	// classifies perfectly.
	ds := &data.Dataset{
		X:           []float64{1, 0, 0, 1, 1, 0},
		Y:           []int{0, 1, 0},
		SampleShape: []int{2},
		Classes:     2,
	}
	m := nn.NewLogistic(2, 2, 1)
	v := m.ParamVector() // W (2x2) then b (2)
	copy(v, []float64{10, -10, -10, 10, 0, 0})
	m.SetParamVector(v)
	acc, loss := Evaluate(m, ds, 2)
	if acc != 1 {
		t.Fatalf("accuracy %v, want 1", acc)
	}
	if loss > 1e-6 {
		t.Fatalf("loss %v", loss)
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	m := nn.NewLogistic(2, 2, 1)
	ds := &data.Dataset{SampleShape: []int{2}, Classes: 2}
	acc, loss := Evaluate(m, ds, 0)
	if acc != 0 || loss != 0 {
		t.Fatal("empty dataset should evaluate to zeros")
	}
}

// TestParallelEachCoversAll holds the fan-out the executor, evaluator and
// tree aggregation share: cpu.Each runs every index exactly once.
func TestParallelEachCoversAll(t *testing.T) {
	var count int64
	seen := make([]int32, 100)
	cpu.Each(100, 8, func(_, i int) {
		atomic.AddInt64(&count, 1)
		atomic.AddInt32(&seen[i], 1)
	})
	if count != 100 {
		t.Fatalf("ran %d of 100", count)
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d ran %d times", i, s)
		}
	}
}

func TestParallelEachPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	cpu.Each(10, 4, func(_, i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

func TestClientBatchCached(t *testing.T) {
	sys := testSystem(6, 0.5, 12)
	c := sys.Clients[0]
	x1, y1 := sys.ClientBatch(c)
	x2, y2 := sys.ClientBatch(c)
	if x1 != x2 {
		t.Fatal("batch not cached")
	}
	if len(y1) != len(y2) || len(y1) != c.NumSamples() {
		t.Fatal("label cache wrong")
	}
}

// TestNewSystemCompactsPartition holds NewSystem's layout: Train is exactly
// the assigned samples, client i's rows are one contiguous range in client
// order holding what the pool held at its drawn indices, and ClientBatch —
// a SubSystem's too — is a view into Train, not a copy. Compaction keeps
// client IDs dense, sys.Clients[i].ID == i, which is how fednode looks a
// group member up.
func TestNewSystemCompactsPartition(t *testing.T) {
	const numClients, seed = 9, 21
	sys := testSystem(numClients, 0.5, seed)
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	part := data.PartitionConfig{
		NumClients: numClients, Alpha: 0.5,
		MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
		Seed: seed + 1,
	}
	pool := data.NewGenerator(gen).Sample(numClients*part.MaxSamples, 0)
	drawn := data.DirichletPartition(pool, part)

	total := 0
	for _, c := range drawn {
		total += c.N
	}
	if sys.Train.Len() != total || len(sys.Train.X) != total*sys.Train.Dim() {
		t.Fatalf("Train holds %d rows (%d floats), want exactly the %d assigned", sys.Train.Len(), len(sys.Train.X), total)
	}
	sub := sys.SubSystem(sys.Clients[numClients/2:], 1)
	dim, off := sys.Train.Dim(), 0
	for ci, c := range sys.Clients {
		if c.ID != ci || c.N != drawn[ci].N {
			t.Fatalf("sys.Clients[%d]: ID %d, N %d, want ID %d, N %d", ci, c.ID, c.N, ci, drawn[ci].N)
		}
		for j, i := range c.Indices {
			if i != off+j {
				t.Fatalf("client %d: Indices[%d] = %d, want %d", ci, j, i, off+j)
			}
		}
		wantX, wantY := pool.Batch(drawn[ci].Indices)
		x, y := sys.ClientBatch(c)
		if len(y) != c.N || len(x.Data) != c.N*dim || x.Shape[0] != c.N {
			t.Fatalf("client %d: batch of %d labels, %d floats, shape %v", ci, len(y), len(x.Data), x.Shape)
		}
		for j := range wantY {
			if y[j] != wantY[j] {
				t.Fatalf("client %d: label %d is %d, want %d", ci, j, y[j], wantY[j])
			}
		}
		for j := range wantX.Data {
			if math.Float64bits(x.Data[j]) != math.Float64bits(wantX.Data[j]) {
				t.Fatalf("client %d: feature %d differs from the pool's row", ci, j)
			}
		}
		if &x.Data[0] != &sys.Train.X[off*dim] || &y[0] != &sys.Train.Y[off] {
			t.Fatalf("client %d: ClientBatch is a copy, not a view into Train", ci)
		}
		if ci >= numClients/2 {
			if sx, sy := sub.ClientBatch(c); sx != x || &sy[0] != &y[0] {
				t.Fatalf("client %d: the SubSystem's batch is not the parent's view", ci)
			}
		}
		off += c.N
	}
}

func TestCoVGroupingOutperformsRandomUnderSkew(t *testing.T) {
	// The headline claim at miniature scale: with skewed data and a fixed
	// cost budget, CoVG+ESRCoV reaches at least the accuracy of RG+Random.
	run := func(alg grouping.Algorithm, m sampling.Method) float64 {
		sys := testSystem(20, 0.15, 13)
		cfg := testConfig()
		cfg.GlobalRounds = 12
		cfg.Grouping = alg
		cfg.Sampling = m
		// Average final accuracy over 2 seeds to damp noise.
		total := 0.0
		for s := uint64(0); s < 2; s++ {
			cfg.Seed = 100 + s
			total += Train(sys, cfg).FinalAccuracy
		}
		return total / 2
	}
	covg := run(grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MaxCoV: 0.4, MergeLeftover: true}}, sampling.ESRCoV)
	rg := run(grouping.RandomGrouping{Config: grouping.Config{MinGS: 3}}, sampling.Random)
	if covg < rg-0.08 {
		t.Fatalf("Group-FEL %.3f clearly below FedAvg-style %.3f", covg, rg)
	}
}
