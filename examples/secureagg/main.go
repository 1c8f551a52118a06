// Secureagg: the group operations whose quadratic cost motivates the whole
// paper, run for real — a secure aggregation session with a dropout, then
// backdoor detection catching a poisoned update, and the message-flow
// timing of one hierarchical round from the closed-form link model.
package main

import (
	"fmt"

	groupfel "repro"
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

	// --- Backdoor detection ----------------------------------------------
	fmt.Println("\nbackdoor detection over the group's raw updates:")
	poisoned := make([][]float64, groupSize)
	base := make([]float64, dim)
	for d := range base {
		base[d] = rng.Normal(0, 1)
	}
	for i := range poisoned {
		poisoned[i] = make([]float64, dim)
		for d := range poisoned[i] {
			poisoned[i][d] = base[d] + rng.Normal(0, 0.2)
		}
	}
	for d := range poisoned[6] {
		poisoned[6][d] = -8 * base[d] // the attacker
	}
	res := groupfel.DetectBackdoors(poisoned, groupfel.DefaultBackdoorConfig())
	fmt.Printf("  flagged clients: %v (injected attacker: 6)\n", res.Flagged)
	fmt.Printf("  accepted %d updates, clipped to norm %.3f, %d pairwise similarity ops\n",
		len(res.Accepted), res.ClipNorm, res.PairwiseOps)

	// --- One hierarchical round over the simulated edge network ----------
	fmt.Println("\nmessage flow of one cloud→edge→clients→edge→cloud round:")
	topo := groupfel.DefaultTopology()
	const modelBytes = 200_000
	const slowest = 3.4 // seconds of local training on the slowest of the 5 clients
	// Model down, everyone computes (the slowest gates the round), updates up.
	group := 2*topo.ClientEdge.TransferTime(modelBytes) + slowest
	total := 2*topo.EdgeCloud.TransferTime(modelBytes) + 3*group
	fmt.Printf("  group round (5 clients, %d-byte model): %.3f s\n", modelBytes, group)
	fmt.Printf("  global round (K=3 group rounds + WAN hops): %.3f s\n", total)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
