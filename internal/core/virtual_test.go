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

// TestVirtualSystemShape sanity-checks the flyweight population: its recipe
// is the virtual partition itself, clients are histograms whose counts sum
// to N, and ClientBatch synthesizes the same batch the materialized copy
// holds.
func TestVirtualSystemShape(t *testing.T) {
	sys := NewVirtualSystem(testSystemConfig(10, 0.5, 5))
	if _, ok := sys.rows.(*data.VirtualPartition); !ok {
		t.Fatalf("virtual system's recipe is a %T, not its virtual partition", sys.rows)
	}
	if len(sys.Clients) != 10 || len(sys.Edges) != 2 {
		t.Fatalf("population %d clients across %d edges", len(sys.Clients), len(sys.Edges))
	}
	mat := sys.Materialize()
	for _, c := range sys.Clients {
		sum := 0.0
		for _, n := range c.Counts {
			sum += n
		}
		if int(sum) != c.N {
			t.Fatalf("virtual client %d: Counts sum to %v, N = %d", c.ID, sum, c.N)
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
// memory model: a selection slot keeps only its vector, the group model,
// while the n×dim client storage of a group round lives in machines bounded
// by RunGroups' fan-out width. At MaxParallel 1 there is one machine whatever
// S is, so going from S = 2 to S = 8 on a warm wide-model Trainer grows
// retained heap — the Trainer's and what its System lent it — by about
// ΔS·dim floats. Keeping the client storage per slot would grow it by
// ΔS·|g|·dim, at least MinGS times more. Each measurement runs on a System of
// its own, so neither finds storage the other left.
func TestSelectionSlotMemoryODim(t *testing.T) {
	const minGS = 8
	newSystem := func() *System {
		return NewSystem(SystemConfig{
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
	}
	retained := func(s int) (heap int64, dim int) {
		sys := newSystem()
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
