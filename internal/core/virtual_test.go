package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// virtualTestConfig builds the SystemConfig shared by the virtual and
// materialized sides of the equivalence tests.
func virtualTestConfig(numClients int, seed uint64) SystemConfig {
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	return SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: numClients, Alpha: 0.5,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: seed + 1,
		},
		NumEdges: 2,
		TestSize: 400,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{16}, 4, s)
		},
		ModelSeed: 7,
	}
}

// TestVirtualTrainBitIdenticalToMaterialized is the correctness gate of the
// flyweight refactor: training on a virtual population (samples synthesized
// per selection into worker buffers) must produce Float64bits-identical
// weights to training on its materialized copy (samples read through views
// into a shared dataset), with every stateful feature that could diverge switched
// on — client dropout, periodic regrouping, and SCAFFOLD variates — across
// serial and parallel engines.
func TestVirtualTrainBitIdenticalToMaterialized(t *testing.T) {
	scfg := virtualTestConfig(12, 3)
	for _, par := range []int{1, 4} {
		run := func(sys *System) []float64 {
			cfg := testConfig()
			cfg.GlobalRounds = 4
			cfg.RegroupEvery = 2
			cfg.DropoutProb = 0.25
			cfg.MaxParallel = par
			cfg.Local = &ScaffoldUpdater{NumClients: 12}
			return Train(sys, cfg).Params
		}
		virtual := NewVirtualSystem(scfg)
		if !virtual.Virtual() {
			t.Fatal("NewVirtualSystem built a non-virtual system")
		}
		materialized := virtual.Materialize()
		if materialized.Virtual() || materialized.Train == nil {
			t.Fatal("Materialize did not produce a materialized system")
		}
		v := run(virtual)
		m := run(materialized)
		if len(v) == 0 || len(v) != len(m) {
			t.Fatalf("MaxParallel=%d: parameter counts %d vs %d", par, len(v), len(m))
		}
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(m[i]) {
				t.Fatalf("MaxParallel=%d: param %d differs: %x vs %x (%.17g vs %.17g)",
					par, i, math.Float64bits(v[i]), math.Float64bits(m[i]), v[i], m[i])
			}
		}
	}
}

// TestVirtualSystemShape sanity-checks the flyweight population: no Train
// dataset, histogram-only clients, and ClientBatch synthesizing the same
// batch the materialized copy gathers.
func TestVirtualSystemShape(t *testing.T) {
	sys := NewVirtualSystem(virtualTestConfig(10, 5))
	if sys.Train != nil {
		t.Fatal("virtual system holds a materialized Train dataset")
	}
	if len(sys.Clients) != 10 || len(sys.Edges) != 2 {
		t.Fatalf("population %d clients across %d edges", len(sys.Clients), len(sys.Edges))
	}
	mat := sys.Materialize()
	for _, c := range sys.Clients {
		if c.Indices != nil {
			t.Fatalf("virtual client %d has indices", c.ID)
		}
		x, y := sys.ClientBatch(c)
		mx, my := mat.ClientBatch(mat.Clients[c.ID])
		if len(y) != len(my) || len(y) != c.NumSamples() {
			t.Fatalf("client %d: %d vs %d labels (N=%d)", c.ID, len(y), len(my), c.NumSamples())
		}
		for i := range y {
			if y[i] != my[i] {
				t.Fatalf("client %d label %d differs", c.ID, i)
			}
		}
		for i := range x.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(mx.Data[i]) {
				t.Fatalf("client %d feature %d differs", c.ID, i)
			}
		}
	}
}

// TestVirtualTrainerCheckpointResume extends the PR-7 resume guarantee to
// virtual systems: kill a run at a round boundary, rebuild from the
// snapshot, and the remaining rounds are bit-identical.
func TestVirtualTrainerCheckpointResume(t *testing.T) {
	scfg := virtualTestConfig(12, 11)
	cfg := testConfig()
	cfg.GlobalRounds = 6
	cfg.RegroupEvery = 3

	full := NewTrainer(NewVirtualSystem(scfg), cfg)
	for !full.Done() {
		full.Step()
	}
	want := full.Finish().Params

	half := NewTrainer(NewVirtualSystem(scfg), cfg)
	for i := 0; i < 3; i++ {
		half.Step()
	}
	st, err := half.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	resumed, err := NewTrainerResumed(NewVirtualSystem(scfg), cfg, st)
	if err != nil {
		t.Fatalf("NewTrainerResumed: %v", err)
	}
	for !resumed.Done() {
		resumed.Step()
	}
	got := resumed.Finish().Params
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d differs after resume: %.17g vs %.17g", i, got[i], want[i])
		}
	}
}

// TestVirtualRoundMemoryOSelected is the O(selected)-memory gate of the
// flyweight populations: a 4× larger population with the same selection
// size must not allocate 4× more per round. Steady-state round allocations
// track the selected set (fixed S, similar group sizes), so the big
// population is allowed modest growth — worker-buffer regrowth, larger
// group index slices — but nothing resembling proportional scaling.
// Population heap, by contrast, must grow with the population: that is
// where the flyweights live.
func TestVirtualRoundMemoryOSelected(t *testing.T) {
	const rounds, sampleGroups = 3, 8
	type row struct {
		popHeap            uint64
		allocs, allocBytes float64
	}
	measure := func(clients, edges int) row {
		// Two GC cycles around each heap read: sync.Pool contents (the GEMM
		// packing buffers, worker sample arenas) drain through a victim
		// cache over two collections, so a single GC can leave megabytes of
		// pool memory in the before reading that the after reading has
		// freed — underflowing the delta when earlier tests warmed the pools.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		gen := data.FlatConfig(10, 32, 1)
		gen.Noise = 1.2
		sys := NewVirtualSystem(SystemConfig{
			Generator: gen,
			Partition: data.PartitionConfig{
				NumClients: clients, Alpha: 0.5,
				MinSamples: 20, MaxSamples: 200, MeanSamples: 110, StdSamples: 45,
				Seed: 102,
			},
			NumEdges:  edges,
			TestSize:  512,
			NewModel:  func(ms uint64) *nn.Sequential { return nn.NewMLP(32, []int{32}, 10, ms) },
			ModelSeed: 7,
		})
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		r := row{popHeap: after.HeapAlloc - before.HeapAlloc}

		tr := NewTrainer(sys, Config{
			// +2: the warm-up round absorbs the t=0 evaluation, and the
			// final-round evaluation never lands inside the measured window.
			GlobalRounds: rounds + 2,
			GroupRounds:  1, LocalEpochs: 1, BatchSize: 32, LR: 0.05,
			SampleGroups: sampleGroups,
			Grouping:     grouping.CoVGrouping{Config: grouping.Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}},
			Sampling:     sampling.ESRCoV,
			Weights:      sampling.Biased,
			Seed:         1,
			CostProfile:  cost.CIFARProfile(),
			CostOps:      cost.DefaultOps(),
			EvalEvery:    rounds + 5,
		})
		groups := len(tr.plan.Groups())
		tr.Step() // warm-up: steady-states the pools

		runtime.ReadMemStats(&before)
		selected := 0
		for i := 0; i < rounds; i++ {
			tr.Step()
			selected += tr.SelectedClients()
		}
		runtime.ReadMemStats(&after)
		r.allocs = float64(after.Mallocs-before.Mallocs) / rounds
		r.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / rounds

		if groups < clients/10 {
			t.Fatalf("%d clients: implausible group count %d", clients, groups)
		}
		if selected <= 0 || selected > rounds*sampleGroups*50 {
			t.Fatalf("%d clients: %d clients selected over %d rounds, out of range", clients, selected, rounds)
		}
		return r
	}
	small := measure(20_000, 16)
	big := measure(80_000, 64)

	// O(selected): per-round allocation may wobble (buffer regrowth, GC
	// bookkeeping) but must stay far below the 4× population ratio.
	const slack = 8 << 20
	if big.allocBytes > 2*small.allocBytes+slack {
		t.Fatalf("round alloc bytes scaled with population: %.0f at 80k vs %.0f at 20k",
			big.allocBytes, small.allocBytes)
	}
	if big.allocs > 2*small.allocs+4096 {
		t.Fatalf("round alloc count scaled with population: %.0f at 80k vs %.0f at 20k",
			big.allocs, small.allocs)
	}
	// The flyweight store itself is O(population): 4× clients should cost
	// at least ~2× heap (loose: GC timing makes exact ratios unstable).
	if big.popHeap < 2*small.popHeap {
		t.Fatalf("population heap did not grow with population: %d at 80k vs %d at 20k",
			big.popHeap, small.popHeap)
	}
}

// TestSelectionSlotMemoryODim is the per-slot half of the O(selected)
// memory model: a selection slot keeps only what its GroupUpdate aliases,
// the group vector, while the n×dim client storage of a group round lives
// in machines bounded by RunGroups' fan-out width. At MaxParallel 1 there is
// one machine whatever S is, so going from S = 2 to S = 8 on a warm
// wide-model Trainer grows retained heap by about ΔS·dim floats. Keeping the
// client storage per slot would grow it by ΔS·|g|·dim, at least MinGS times
// more.
func TestSelectionSlotMemoryODim(t *testing.T) {
	const minGS = 8
	sys := NewSystem(SystemConfig{
		Generator: data.FlatConfig(10, 32, 3),
		Partition: data.PartitionConfig{
			NumClients: 96, Alpha: 0.5,
			MinSamples: 8, MaxSamples: 16, MeanSamples: 12, StdSamples: 3,
			Seed: 4,
		},
		NumEdges:  2,
		TestSize:  64,
		NewModel:  func(s uint64) *nn.Sequential { return nn.NewMLP(32, []int{512}, 10, s) },
		ModelSeed: 7,
	})
	retained := func(s int) (heap int64, dim int) {
		cfg := testConfig()
		cfg.GlobalRounds, cfg.GroupRounds, cfg.SampleGroups = 4, 1, s
		cfg.MaxParallel = 1
		cfg.Grouping = grouping.RandomGrouping{Config: grouping.Config{MinGS: minGS}}
		cfg.Sampling = sampling.Random
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := NewTrainer(sys, cfg)
		tr.Step()
		tr.Step()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		for _, g := range tr.Groups() {
			if g.Size() < minGS {
				t.Fatalf("group %d has %d clients, want at least %d", g.ID, g.Size(), minGS)
			}
		}
		dim = len(tr.Params())
		runtime.KeepAlive(tr)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc), dim
	}
	small, dim := retained(2)
	big, _ := retained(8)
	perSlot := float64(big-small) / 6 / float64(8*dim)
	t.Logf("dim %d: retained %d B at S=2, %d B at S=8: %.2f dim-vectors per extra slot", dim, small, big, perSlot)
	if perSlot > 2 {
		t.Fatalf("each extra selection slot retains %.2f dim-vectors, want ≈ 1 (the group model); %d would be per-client storage", perSlot, minGS)
	}
}
