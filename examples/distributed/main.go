// Distributed: Group-FEL as the protocol of the paper's Fig. 1 — cloud, edges
// and clients exchanging wire frames, every group aggregated under real
// secure aggregation, so an edge never sees one client's update. A delay-only
// fault plan prices each frame on its link and each masked update with its
// client's compute time on a simulated clock: a round's modelled seconds cost
// milliseconds, and the weights are those of an undelayed run.
package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	groupfel "repro"
	"repro/internal/faultnet"
)

func main() {
	const seed = 21
	gen := groupfel.FlatTask(6, 12, seed)
	sys := groupfel.NewSystem(groupfel.SystemConfig{
		Generator: gen,
		Partition: groupfel.PartitionConfig{
			NumClients: 24, Alpha: 0.2,
			MinSamples: 10, MaxSamples: 30, MeanSamples: 20, StdSamples: 6,
			Seed: seed + 1,
		},
		NumEdges: 2,
		TestSize: 500,
		NewModel: func(s uint64) *groupfel.Model {
			return groupfel.NewMLP(12, []int{16}, 6, s)
		},
		ModelSeed: 7,
	})

	grouping := groupfel.CoVGrouping{Config: groupfel.GroupingConfig{MinGS: 4, MaxCoV: 0.5, MergeLeftover: true}}
	groups := groupfel.FormGroups(grouping, sys.Edges, sys.Classes, seed)
	probs := groupfel.SamplingProbabilities(groups, groupfel.ESRCoV)
	fmt.Printf("formed %d groups; sampling probabilities:", len(groups))
	for _, p := range probs {
		fmt.Printf(" %.3f", p)
	}
	fmt.Println()

	model := sys.NewModel(sys.ModelSeed)
	params := model.ParamVector()
	before, _ := groupfel.Evaluate(model, sys.Test, 0)

	cfg := groupfel.NetworkedJobConfig{
		GroupRounds: 3, LocalEpochs: 1, BatchSize: 16, LR: 0.08, SampleGroups: 2,
		Grouping: grouping, Weights: groupfel.BiasedWeights,
		StragglerTimeout: time.Minute, // above the slowest client's compute time
	}
	// An edge deployment's links — 5 ms at 25 MB/s client–edge, 40 ms at
	// 5 MB/s edge–cloud — and each client's E·H_i(n_i) on the CIFAR profile.
	computeMs := make([]int, len(sys.Clients))
	for _, c := range sys.Clients {
		computeMs[c.ID] = int(math.Round(1000 * float64(cfg.LocalEpochs) * groupfel.CIFARProfile().Training(c.NumSamples())))
	}
	plan, err := faultnet.ModelPlan(faultnet.Link{DelayMs: 5, BytesPerMs: 25_000}, faultnet.Link{DelayMs: 40, BytesPerMs: 5_000}, computeMs)
	if err != nil {
		panic(err)
	}
	nw := faultnet.Wrap(groupfel.NewMemTransport(), plan, nil)
	clk := nw.Clock()
	start := clk.Now()

	// Select the top two groups by probability (ESRCoV is near top-k).
	sel := make([]int, len(groups))
	for i := range sel {
		sel[i] = i
	}
	slices.SortStableFunc(sel, func(a, b int) int { return cmp.Compare(probs[b], probs[a]) })
	sel = sel[:2]
	fmt.Println("\nround  simulated(s)  frames  wire-bytes  accuracy")
	for r := 0; r < 8; r++ {
		cfg.Seed = uint64(seed + r)
		roundStart := clk.Now()
		next, rep, err := groupfel.RunNetworkedRound(nw, sys, groups, sel, params, cfg, "")
		if err != nil {
			panic(err)
		}
		params = next
		fmt.Printf("%5d  %12.3f  %6d  %10d  %8.4f\n",
			r, clk.Now().Sub(roundStart).Seconds(), rep.Frames, rep.WireWritten, rep.FinalAccuracy)
	}
	model.SetParamVector(params)
	after, _ := groupfel.Evaluate(model, sys.Test, 0)
	fmt.Printf("\naccuracy %.4f → %.4f over %.3f simulated seconds of protocol time\n",
		before, after, clk.Now().Sub(start).Seconds())
	fmt.Println("every group aggregate was computed under secure aggregation: the")
	fmt.Println("edge reconstructed only the masked sum, never a client's update.")
}
