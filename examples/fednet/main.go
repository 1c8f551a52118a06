// Fednet: Group-FEL over a real network transport. The whole federation —
// cloud coordinator, edge servers, clients — runs as concurrent servers
// exchanging length-prefixed binary frames over TCP on 127.0.0.1, with
// secure aggregation inside every group. Unlike examples/distributed (which
// *models* link times), every byte and millisecond of that run is measured.
// A second run resets one client's connection mid-round through a faultnet
// rule, and its group recovers the round from Shamir shares.
package main

import (
	"fmt"

	groupfel "repro"
	"repro/internal/faultnet"
)

func main() {
	const seed = 33
	gen := groupfel.FlatTask(4, 10, seed)
	gen.Noise = 0.8
	sys := groupfel.NewSystem(groupfel.SystemConfig{
		Generator: gen,
		Partition: groupfel.PartitionConfig{
			NumClients: 20, Alpha: 0.5,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: seed + 1,
		},
		NumEdges: 2,
		TestSize: 400,
		NewModel: func(s uint64) *groupfel.Model {
			return groupfel.NewMLP(10, []int{16}, 4, s)
		},
		ModelSeed: 7,
	})

	cfg := groupfel.NetworkedJobConfig{
		GlobalRounds: 3, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 2,
		Grouping: groupfel.CoVGrouping{Config: groupfel.GroupingConfig{MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling: groupfel.ESRCoV,
		Weights:  groupfel.BiasedWeights,
		Seed:     seed,
	}

	fmt.Println("== clean networked job over 127.0.0.1 ==")
	rep, err := groupfel.RunNetworkedJob(groupfel.TCPTransport{}, sys, cfg, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	for _, r := range rep.Rounds {
		fmt.Printf("round %d: acc=%.4f groups=%d bytes=%d\n", r.Round, r.Accuracy, r.Selected, r.WireBytes)
	}
	fmt.Printf("final acc=%.4f, %d frames, %d bytes on the wire, wall %s\n",
		rep.FinalAccuracy, rep.Frames, rep.WireWritten, rep.WallClock.Round(0))
	fmt.Printf("codec accounting matches transport: %v\n", rep.AccountedBytes == rep.WireWritten)

	// Same job, but one client's connection is reset as it submits its
	// round-0 update, after training — a real closed connection, detected by
	// the edge and recovered via the secagg share-reveal exchange. Pin
	// formation + selection so the faulty client is deterministically in play.
	groups, err := cfg.PinAllGroups(sys)
	if err != nil {
		panic(err)
	}
	var victim int
	for _, g := range groups {
		if g.Size() >= 3 {
			victim = g.Clients[0].ID
			break
		}
	}
	plan := &faultnet.Plan{Name: "mid-round-crash", Rules: []faultnet.Rule{{
		From: fmt.Sprintf("client/%d", victim), To: "edge/*", Type: "MaskedUpdate",
		Round: 0, Seq: 0, Action: faultnet.ActionReset, Count: 1,
	}}}
	if err := plan.Validate(); err != nil {
		panic(err)
	}

	fmt.Printf("\n== same job with client %d's connection reset mid-round ==\n", victim)
	rep2, err := groupfel.RunNetworkedJob(faultnet.Wrap(groupfel.NewMemTransport(), plan, nil), sys, cfg, "")
	if err != nil {
		panic(err)
	}
	fmt.Printf("dropouts=%d, casualties=%d, recovered group rounds=%d, final acc=%.4f (clean: %.4f)\n",
		rep2.Dropouts, len(rep2.Casualties), rep2.Recoveries, rep2.FinalAccuracy, rep.FinalAccuracy)
}
