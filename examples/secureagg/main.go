// Secureagg: the group operations whose quadratic cost motivates the whole
// paper, run for real — a secure aggregation session with a dropout, then
// one hierarchical round of the networked protocol, timed on modelled links
// in simulated seconds.
package main

import (
	"fmt"
	"math"
	"time"

	groupfel "repro"
	"repro/internal/faultnet"
	"repro/internal/stats"
)

func main() {
	const (
		groupSize = 8
		dim       = 64
		threshold = 5
	)
	rng := stats.NewRNG(99)

	// --- Secure aggregation with a dropout -------------------------------
	fmt.Printf("secure aggregation: %d clients, %d-dim updates, threshold %d\n",
		groupSize, dim, threshold)
	q := groupfel.DefaultQuantizer()
	sess := groupfel.NewSecAggSession(groupSize, dim, threshold, 2024, q)

	updates := make([][]float64, groupSize)
	masked := make([][]uint64, groupSize)
	plainSum := make([]float64, dim)
	dropped := []int{3} // client 3 goes offline before submitting
	for i := 0; i < groupSize; i++ {
		updates[i] = make([]float64, dim)
		for d := range updates[i] {
			updates[i][d] = rng.Normal(0, 0.5)
		}
		if i == 3 {
			continue
		}
		masked[i] = sess.MaskedUpdate(i, updates[i])
		for d := range updates[i] {
			plainSum[d] += updates[i][d]
		}
	}
	sum, err := sess.Aggregate(masked, dropped)
	if err != nil {
		panic(err)
	}
	maxErr := 0.0
	for d := range sum {
		if e := abs(sum[d] - plainSum[d]); e > maxErr {
			maxErr = e
		}
	}
	ops := sess.Ops()
	fmt.Printf("  aggregated despite dropout of client 3; max error vs plaintext sum: %.2e\n", maxErr)
	fmt.Printf("  work: %d PRG mask streams, %d shares dealt, %d shares used\n",
		ops.MaskStreams, ops.SharesDealt, ops.SharesUsed)
	fmt.Printf("  (mask streams ~ n(n-1)+2n = %d: this quadratic growth is Fig. 8's SecAgg curve)\n",
		groupSize*(groupSize-1)+2*groupSize)

	// --- One hierarchical round over the modelled edge network -----------
	// 5 ms at 25 MB/s client–edge, 40 ms at 5 MB/s edge–cloud, and each
	// client's E·H_i(n_i) on the CIFAR profile before its masked update.
	sys := groupfel.NewSystem(groupfel.SystemConfig{
		Generator: groupfel.FlatTask(4, 10, 5), NumEdges: 2, TestSize: 200, ModelSeed: 7,
		Partition: groupfel.PartitionConfig{NumClients: 10, Alpha: 0.5, MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8, Seed: 6},
		NewModel:  func(s uint64) *groupfel.Model { return groupfel.NewMLP(10, []int{16}, 4, s) },
	})
	computeMs := make([]int, len(sys.Clients))
	for _, c := range sys.Clients {
		computeMs[c.ID] = int(math.Round(1000 * groupfel.CIFARProfile().Training(c.NumSamples())))
	}
	plan, err := faultnet.ModelPlan(faultnet.Link{DelayMs: 5, BytesPerMs: 25_000}, faultnet.Link{DelayMs: 40, BytesPerMs: 5_000}, computeMs)
	if err != nil {
		panic(err)
	}
	nw := faultnet.Wrap(groupfel.NewMemTransport(), plan, nil)
	grouping := groupfel.CoVGrouping{Config: groupfel.GroupingConfig{MinGS: 5, MergeLeftover: true}}
	groups := groupfel.FormGroups(grouping, sys.Edges, sys.Classes, 5)
	cfg := groupfel.NetworkedJobConfig{
		GroupRounds: 3, LocalEpochs: 1, BatchSize: 16, LR: 0.05, SampleGroups: 1, Grouping: grouping, Seed: 5,
		StragglerTimeout: time.Minute, // above the slowest client's compute time
	}
	start := nw.Clock().Now()
	if _, _, err := groupfel.RunNetworkedRound(nw, sys, groups, []int{0}, sys.NewModel(sys.ModelSeed).ParamVector(), cfg, ""); err != nil {
		panic(err)
	}
	fmt.Printf("\none cloud→edge→clients→edge→cloud round of a %d-client group on modelled links\n", groups[0].Size())
	fmt.Printf("  (K=3 group rounds + WAN hops): %.3f simulated seconds\n", nw.Clock().Now().Sub(start).Seconds())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
