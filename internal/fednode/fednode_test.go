package fednode

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// testSystem builds a small, fast federated population on two edges.
func testSystem(numClients int, seed uint64) *core.System {
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	return core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: numClients, Alpha: 0.5,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: seed + 1,
		},
		NumEdges: 2,
		TestSize: 300,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{16}, 4, s)
		},
		ModelSeed: 7,
	})
}

func testJobConfig() JobConfig {
	return JobConfig{
		GlobalRounds: 3, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 2,
		Grouping: grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling: sampling.ESRCoV,
		Weights:  sampling.Biased,
		Seed:     42,
	}
}

// TestLoopbackMatchesTrain is the tentpole equivalence check: a full job
// over in-memory connections must reproduce the in-process trainer's
// trajectory, with only secure-aggregation quantization separating the
// final parameter vectors.
func TestLoopbackMatchesTrain(t *testing.T) {
	sys := testSystem(12, 1)
	jcfg := testJobConfig()
	rep, err := RunJob(NewMemNetwork(), sys, jcfg, "")
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if rep.RoundsRun != jcfg.GlobalRounds {
		t.Fatalf("ran %d rounds, want %d", rep.RoundsRun, jcfg.GlobalRounds)
	}
	if rep.Dropouts != 0 || rep.Recoveries != 0 {
		t.Fatalf("clean run reported %d dropouts / %d recoveries", rep.Dropouts, rep.Recoveries)
	}

	res := core.Train(sys, jcfg.TrainConfig(nil))
	if len(rep.Params) != len(res.Params) {
		t.Fatalf("param dims differ: %d vs %d", len(rep.Params), len(res.Params))
	}
	maxDiff := 0.0
	for j := range rep.Params {
		if d := math.Abs(rep.Params[j] - res.Params[j]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Fatalf("networked params diverge from Train by %v (quantization should stay <= 1e-3)", maxDiff)
	}
	if d := math.Abs(rep.FinalAccuracy - res.FinalAccuracy); d > 0.02 {
		t.Fatalf("accuracy gap %v: networked %.4f vs in-process %.4f", d, rep.FinalAccuracy, res.FinalAccuracy)
	}
}

// TestByteAccountingCrossChecks asserts the codec-side accounting equals the
// transport bytes that actually moved on a clean run: every byte written was
// part of an accounted frame, and every written byte was read.
func TestByteAccountingCrossChecks(t *testing.T) {
	sys := testSystem(10, 3)
	jcfg := testJobConfig()
	jcfg.GlobalRounds = 2
	rep, err := RunJob(NewMemNetwork(), sys, jcfg, "")
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if rep.WireWritten == 0 || rep.Frames == 0 {
		t.Fatal("meter saw no traffic")
	}
	if rep.WireWritten != rep.AccountedBytes {
		t.Fatalf("transport wrote %d bytes but codec accounted %d", rep.WireWritten, rep.AccountedBytes)
	}
	if rep.WireRead != rep.WireWritten {
		t.Fatalf("read %d bytes of %d written: frames left undrained", rep.WireRead, rep.WireWritten)
	}
	var roundSum int64
	for _, r := range rep.Rounds {
		if r.WireBytes <= 0 {
			t.Fatalf("round %d moved %d bytes", r.Round, r.WireBytes)
		}
		roundSum += r.WireBytes
	}
	if roundSum > rep.WireWritten {
		t.Fatalf("per-round bytes %d exceed total %d", roundSum, rep.WireWritten)
	}
}

// TestMidRoundDisconnectRecovers injects a real client disconnect between
// local training and update submission; the edge must detect the dead
// connection, run the share-reveal recovery, and complete the round — and
// every later round — without the lost client.
func TestMidRoundDisconnectRecovers(t *testing.T) {
	sys := testSystem(12, 5)
	jcfg := testJobConfig()
	jcfg.GlobalRounds = 2
	jcfg.StragglerTimeout = 2 * time.Second

	// Pin formation and selection so the dropped client's group is
	// deterministically in play every round.
	groups, err := jcfg.PinAllGroups(sys)
	if err != nil {
		t.Fatal(err)
	}
	var target *grouping.Group
	for _, g := range groups {
		if g.Size() >= 3 {
			target = g
			break
		}
	}
	if target == nil {
		t.Fatal("no group with >= 3 clients")
	}
	jcfg.ForceDrop = &ForcedDrop{Client: target.Clients[0].ID, Round: 0, GroupRound: 0}

	rep, err := RunJob(NewMemNetwork(), sys, jcfg, "")
	if err != nil {
		t.Fatalf("RunJob with disconnect: %v", err)
	}
	if rep.RoundsRun != 2 {
		t.Fatalf("ran %d rounds, want 2", rep.RoundsRun)
	}
	if rep.Dropouts != 1 {
		t.Fatalf("counted %d dropouts, want exactly 1", rep.Dropouts)
	}
	// The dead client stays dead: every subsequent group round of its group
	// runs dropout recovery, so K rounds in global round 0 after the drop
	// plus K in global round 1.
	wantRecov := 2*jcfg.GroupRounds - 0 // drop happens in round 0.0, before its aggregation
	if rep.Recoveries != wantRecov {
		t.Fatalf("counted %d recoveries, want %d", rep.Recoveries, wantRecov)
	}
	if rep.FinalAccuracy <= 0.3 {
		t.Fatalf("final accuracy %.3f after recovery, want > 0.3", rep.FinalAccuracy)
	}
}

// TestTCPLoopback runs a small job over real sockets on 127.0.0.1.
func TestTCPLoopback(t *testing.T) {
	sys := testSystem(8, 9)
	jcfg := testJobConfig()
	jcfg.GlobalRounds = 2
	rep, err := RunJob(TCPNetwork{}, sys, jcfg, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("RunJob over TCP: %v", err)
	}
	if rep.RoundsRun != 2 {
		t.Fatalf("ran %d rounds, want 2", rep.RoundsRun)
	}
	if rep.WireWritten != rep.AccountedBytes {
		t.Fatalf("transport wrote %d bytes but codec accounted %d", rep.WireWritten, rep.AccountedBytes)
	}
}

// TestRunRoundMatchesHFLShape runs the single-round API over explicit groups.
func TestRunRoundMatchesHFLShape(t *testing.T) {
	sys := testSystem(10, 11)
	jcfg := testJobConfig()
	groups := grouping.FormAll(jcfg.Grouping, sys.Edges, sys.Classes, stats.NewRNG(jcfg.Seed).Split(1))
	if len(groups) == 0 {
		t.Fatal("no groups formed")
	}
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	params, rep, err := RunRound(NewMemNetwork(), sys, groups, []int{0}, global, jcfg, "")
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	if len(params) != len(global) {
		t.Fatalf("round returned %d params, want %d", len(params), len(global))
	}
	if rep.RoundsRun != 1 {
		t.Fatalf("ran %d rounds, want 1", rep.RoundsRun)
	}
	same := true
	for j := range params {
		if math.Abs(params[j]-global[j]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("round did not change the global model")
	}
}

// TestGroupRunForwardOnly pins the state machine invariant.
func TestGroupRunForwardOnly(t *testing.T) {
	r := &groupRun{gid: 1, round: 0, k: 0}
	for _, p := range []phase{phaseBroadcast, phaseCollect, phaseAggregate} {
		if err := r.to(p); err != nil {
			t.Fatalf("forward transition to %s: %v", p, err)
		}
	}
	err := r.to(phaseCollect)
	if err == nil {
		t.Fatal("backward transition aggregate → collect was allowed")
	}
	if !strings.Contains(err.Error(), "illegal transition") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

// TestMemNetworkRefusesUnknownAddr pins dial errors and bounded retry.
func TestMemNetworkRefusesUnknownAddr(t *testing.T) {
	nw := NewMemNetwork()
	if _, err := nw.Dial("nowhere"); err == nil {
		t.Fatal("dial of unregistered address succeeded")
	}
	start := time.Now()
	if _, err := DialRetry(nw, "test", "nowhere", 3, time.Millisecond, nil, nil); err == nil {
		t.Fatal("DialRetry of unregistered address succeeded")
	} else if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("unexpected retry error: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("bounded retry took too long")
	}
}

// TestRunJobRejectsBadConfig: T/K/E/LR/S and the selection shape are the
// Trainer's to reject, which the cloud only builds once its edges have
// registered — so the rejection must also tear the started nodes down, not
// leave them waiting out their timeouts.
func TestRunJobRejectsBadConfig(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(*JobConfig)
		want   string
	}{
		"K":              {func(c *JobConfig) { c.GroupRounds = 0 }, "T, K, E must be positive"},
		"LR":             {func(c *JobConfig) { c.LR = 0 }, "LR must be positive"},
		"S":              {func(c *JobConfig) { c.SampleGroups = 0 }, "SampleGroups must be positive"},
		"Grouping":       {func(c *JobConfig) { c.Grouping = nil }, "Grouping algorithm is required"},
		"FixedSelection": {func(c *JobConfig) { c.FixedSelection = [][]int{{0}} }, "fixed selection has 1 rounds, want 3"},
		"InitParams":     {func(c *JobConfig) { c.InitParams = []float64{1} }, "InitParams length 1"},
	} {
		jcfg := testJobConfig()
		tc.mutate(&jcfg)
		start := time.Now()
		_, err := RunJob(NewMemNetwork(), testSystem(8, 9), jcfg, "")
		if err == nil || !strings.HasPrefix(err.Error(), "fednode: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a fednode: error containing %q", name, err, tc.want)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: rejection took %v: the nodes waited out a timeout", name, d)
		}
	}
}
