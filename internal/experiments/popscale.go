package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// PopScale describes one row of the population-scaling benchmark grid: a
// virtual (flyweight) population whose per-round memory must stay
// O(selected clients) regardless of population size, and whose CoV-Grouping
// formation time is the headline Alg. 2-at-scale number.
type PopScale struct {
	// ID names the row in BENCH_scale.json and on the felbench CLI
	// (e.g. "1m").
	ID string
	// Clients is the population size; Edges the number of edge servers.
	// The grid keeps Clients/Edges fixed at 1250 so formation cost per
	// edge is constant and total formation scales linearly with Edges.
	Clients, Edges int
	// Rounds is how many timed global rounds to run (after one untimed
	// warm-up round that also performs the only evaluation).
	Rounds int
}

// PopScales returns the benchmark grid. All rows share the paper-scale
// per-client sample distribution (20–200 samples, mean 110) and a fixed
// selection size, so only the population grows — that is what makes the
// per-round allocation column comparable across rows.
func PopScales() []PopScale {
	return []PopScale{
		{ID: "10k", Clients: 10_000, Edges: 8, Rounds: 5},
		{ID: "100k", Clients: 100_000, Edges: 80, Rounds: 5},
		{ID: "1m", Clients: 1_000_000, Edges: 800, Rounds: 3},
	}
}

// PopScaleByIDs resolves comma-style id lists ("all" or subsets like
// {"10k","1m"}) against the grid. Unknown ids return an error naming the
// valid set.
func PopScaleByIDs(ids []string) ([]PopScale, error) {
	grid := PopScales()
	if len(ids) == 1 && ids[0] == "all" {
		return grid, nil
	}
	var out []PopScale
	for _, id := range ids {
		found := false
		for _, s := range grid {
			if s.ID == id {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			valid := make([]string, len(grid))
			for i, s := range grid {
				valid[i] = s.ID
			}
			return nil, fmt.Errorf("unknown scale %q (valid: %v, or \"all\")", id, valid)
		}
	}
	return out, nil
}

// PopScaleRow is one measured row of results/BENCH_scale.json.
type PopScaleRow struct {
	ID      string `json:"id"`
	Clients int    `json:"clients"`
	Edges   int    `json:"edges"`
	Groups  int    `json:"groups"`
	// SelectedGroups is S, fixed across rows; SelectedClientsAvg is the
	// mean number of clients those groups contain per round — the set the
	// round's working memory is allowed to scale with.
	SelectedGroups     int     `json:"selected_groups"`
	SelectedClientsAvg float64 `json:"selected_clients_avg"`
	// BuildSeconds synthesizes every client's label histogram from
	// (seed, id); PopulationHeapBytes is the resident cost of holding the
	// resulting flyweights (histograms only — no samples exist anywhere).
	BuildSeconds        float64 `json:"build_seconds"`
	PopulationHeapBytes uint64  `json:"population_heap_bytes"`
	// GroupingSeconds runs CoV-Grouping (Alg. 2) over every edge;
	// GroupingClientsPerSec is Clients/GroupingSeconds.
	GroupingSeconds       float64 `json:"grouping_seconds"`
	GroupingClientsPerSec float64 `json:"grouping_clients_per_sec"`
	// Per-round steady-state costs, averaged over Rounds timed rounds
	// after a warm-up round. RoundAllocBytes is the O(selected) witness:
	// it tracks the selected set, not the population.
	Rounds          int     `json:"rounds"`
	RoundSecondsAvg float64 `json:"round_seconds_avg"`
	RoundAllocsAvg  float64 `json:"round_allocs_avg"`
	RoundAllocBytes float64 `json:"round_alloc_bytes_avg"`
}

// PopScaleResult is the full BENCH_scale.json payload.
type PopScaleResult struct {
	Seed         uint64        `json:"seed"`
	GoMaxProcs   int           `json:"gomaxprocs"`
	SampleGroups int           `json:"sample_groups"`
	Rows         []PopScaleRow `json:"rows"`
}

// popScaleSystem builds the virtual population for one grid row: 10-class
// flat features (dim 32), paper-band sample counts, and a small MLP — the
// model is deliberately modest because the benchmark measures the
// federation machinery, not the math kernels.
func popScaleSystem(s PopScale, seed uint64) *core.System {
	gen := data.FlatConfig(10, 32, seed)
	gen.Noise = 1.2
	return core.NewVirtualSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: s.Clients, Alpha: 0.5,
			MinSamples: 20, MaxSamples: 200, MeanSamples: 110, StdSamples: 45,
			Seed: seed + 101,
		},
		NumEdges:  s.Edges,
		TestSize:  512,
		NewModel:  func(ms uint64) *nn.Sequential { return nn.NewMLP(32, []int{32}, 10, ms) },
		ModelSeed: 7,
	})
}

// popScaleConfig is the training config shared by every row: S is fixed so
// the selected set — and therefore the round's working memory — is the
// same at 10k and at 1M clients.
func popScaleConfig(s PopScale, seed uint64) core.Config {
	return core.Config{
		// +2: one untimed warm-up round (which absorbs the t=0
		// evaluation) plus headroom so the final-round evaluation never
		// lands inside the timed window.
		GlobalRounds: s.Rounds + 2,
		GroupRounds:  1, LocalEpochs: 1, BatchSize: 32, LR: 0.05,
		SampleGroups: 8,
		Grouping:     grouping.CoVGrouping{Config: grouping.Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling:     sampling.ESRCoV,
		Weights:      sampling.Biased,
		Seed:         seed,
		CostProfile:  CIFAR.Profile(),
		CostOps:      cost.DefaultOps(),
		EvalEvery:    s.Rounds + 5,
	}
}

// PopScaleBench measures one grid row. The sequence is: build the flyweight
// population (timed, heap delta recorded), run Alg. 2 formation once
// standalone (timed — this is the grouping-at-scale number), then construct
// a trainer and step it through one warm-up round plus s.Rounds timed
// rounds with evaluation suppressed, reading allocation deltas around the
// timed window.
func PopScaleBench(s PopScale, seed uint64) PopScaleRow {
	row := PopScaleRow{ID: s.ID, Clients: s.Clients, Edges: s.Edges, Rounds: s.Rounds}

	// Two GC cycles around each read: sync.Pool contents (the GEMM packing
	// buffers, worker sample arenas) drain through a victim cache over two
	// collections, so a single GC can leave megabytes of pool memory in the
	// before reading that the after reading has freed — underflowing the
	// delta when earlier tests in the process warmed the pools.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	sys := popScaleSystem(s, seed)
	row.BuildSeconds = time.Since(t0).Seconds()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	row.PopulationHeapBytes = after.HeapAlloc - before.HeapAlloc

	cfg := popScaleConfig(s, seed)
	row.SelectedGroups = cfg.SampleGroups

	// Standalone formation through the control plane NewTrainer builds for
	// itself below: Alg. 2 over every edge plus the O(groups) p_g pass.
	t1 := time.Now()
	plan, err := core.NewPlan(sys, cfg, nil, nil)
	if err != nil {
		panic(fmt.Sprintf("popscale: %v", err))
	}
	row.GroupingSeconds = time.Since(t1).Seconds()
	row.GroupingClientsPerSec = float64(s.Clients) / row.GroupingSeconds
	row.Groups = len(plan.Groups())

	tr := core.NewTrainer(sys, cfg)
	tr.Step() // warm-up: absorbs the t=0 evaluation and steady-states the pools

	runtime.ReadMemStats(&before)
	t2 := time.Now()
	selected := 0
	for r := 0; r < s.Rounds; r++ {
		tr.Step()
		selected += tr.SelectedClients()
	}
	row.RoundSecondsAvg = time.Since(t2).Seconds() / float64(s.Rounds)
	runtime.ReadMemStats(&after)
	row.RoundAllocsAvg = float64(after.Mallocs-before.Mallocs) / float64(s.Rounds)
	row.RoundAllocBytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(s.Rounds)
	row.SelectedClientsAvg = float64(selected) / float64(s.Rounds)
	return row
}

// PopScaleGrid runs the rows and assembles the BENCH_scale.json payload.
// log, when non-nil, receives a progress line per row.
func PopScaleGrid(scales []PopScale, seed uint64, log func(string)) PopScaleResult {
	res := PopScaleResult{
		Seed: seed, GoMaxProcs: runtime.GOMAXPROCS(0),
		SampleGroups: popScaleConfig(PopScale{Rounds: 1}, seed).SampleGroups,
	}
	for _, s := range scales {
		row := PopScaleBench(s, seed)
		res.Rows = append(res.Rows, row)
		if log != nil {
			log(fmt.Sprintf(
				"popscale %s: %d clients/%d edges → %d groups; build %.2fs, grouping %.2fs (%.0f clients/s), round %.3fs / %.1f MB allocs",
				row.ID, row.Clients, row.Edges, row.Groups,
				row.BuildSeconds, row.GroupingSeconds, row.GroupingClientsPerSec,
				row.RoundSecondsAvg, row.RoundAllocBytes/(1<<20)))
		}
	}
	return res
}
