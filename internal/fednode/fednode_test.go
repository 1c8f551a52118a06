package fednode

import (
	"fmt"
	"maps"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/faultnet"
	"repro/internal/grouping"
	"repro/internal/leakcheck"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/wire"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

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
	if !maps.Equal(rep.Participation, res.Participation) {
		t.Fatalf("networked participation %v, in-process %v", rep.Participation, res.Participation)
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
	for i, r := range rep.Rounds {
		if r.WireBytes <= 0 {
			t.Fatalf("round %d moved %d bytes", i, r.WireBytes)
		}
		roundSum += r.WireBytes
	}
	if roundSum > rep.WireWritten {
		t.Fatalf("per-round bytes %d exceed total %d", roundSum, rep.WireWritten)
	}
}

// TestRoundWireBytesRepeat: ten runs of one seeded clean job count the same
// bytes in every round, and set-up, the rounds and shutdown account for
// every byte written. Round 0 must not take in the set-up frames edges and
// clients may still be writing when the cloud opens it.
func TestRoundWireBytesRepeat(t *testing.T) {
	var first []int64
	for run := 0; run < 10; run++ {
		sys := testSystem(12, 5)
		jcfg := testJobConfig()
		jcfg.GlobalRounds = 2
		rep, err := RunJob(NewMemNetwork(), sys, jcfg, "")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := make([]int64, len(rep.Rounds))
		sum := rep.SetupBytes + rep.ShutdownBytes
		for i, r := range rep.Rounds {
			got[i] = r.WireBytes
			sum += r.WireBytes
		}
		if sum != rep.WireWritten {
			t.Fatalf("run %d: set-up %d + rounds %v + shutdown %d = %d bytes, transport wrote %d",
				run, rep.SetupBytes, got, rep.ShutdownBytes, sum, rep.WireWritten)
		}
		if run == 0 {
			first = got
		} else if !slices.Equal(got, first) {
			t.Fatalf("run %d: per-round bytes %v, run 0 counted %v", run, got, first)
		}
	}
}

// dropFirstMember pins jcfg's formation and selection, so the target's
// group is in play every round, and returns a faultnet network whose one
// reset rule kills the first member of the first group of three or more as
// it submits its masked update of round 0's group round k: the client has
// trained, its edge never gets the update, and with no restart budget the
// client is a casualty. It also returns that client's id.
func dropFirstMember(t *testing.T, sys *core.System, jcfg *JobConfig, k int) (*faultnet.Network, int) {
	t.Helper()
	groups, err := jcfg.PinAllGroups(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if g.Size() < 3 {
			continue
		}
		id := g.Clients[0].ID
		plan := &faultnet.Plan{Name: "mid-round-crash", Rules: []faultnet.Rule{{
			From: fmt.Sprintf("client/%d", id), To: "edge/*", Type: "MaskedUpdate",
			Round: 0, Seq: k, Action: faultnet.ActionReset, Count: 1,
		}}}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		return faultnet.Wrap(NewMemNetwork(), plan, nil), id
	}
	t.Fatal("no group with >= 3 clients")
	return nil, 0
}

// checkCasualty fails t unless client id is the report's one casualty.
func checkCasualty(t *testing.T, rep *Report, id int) {
	t.Helper()
	if len(rep.Casualties) != 1 || rep.Casualties[0].Client != id {
		t.Fatalf("casualties %v, want exactly client %d", rep.Casualties, id)
	}
}

// TestMidRoundDisconnectRecovers resets a client's connection between local
// training and update submission; the edge must detect the dead connection,
// run the share-reveal recovery, and complete the round — and every later
// round — without the lost client, which no budget restarts.
func TestMidRoundDisconnectRecovers(t *testing.T) {
	sys := testSystem(12, 5)
	jcfg := testJobConfig()
	jcfg.GlobalRounds = 2
	jcfg.StragglerTimeout = 2 * time.Second
	nw, victim := dropFirstMember(t, sys, &jcfg, 0)

	rep, err := RunJob(nw, sys, jcfg, "")
	if err != nil {
		t.Fatalf("RunJob with disconnect: %v", err)
	}
	checkCasualty(t, rep, victim)
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

// TestEdgeReportsLowestFailingGroup fails two of edge 0's groups in one
// round: every member of its second group is reset as it submits, so that
// group fails at once, and every member of its first group is delayed past
// the straggler deadline, so that group fails 500 ms of simulated time later.
// The edge reports the failure of the earliest group in selection order, not
// the one that failed first.
func TestEdgeReportsLowestFailingGroup(t *testing.T) {
	sys := testSystem(24, 3)
	jcfg := testJobConfig()
	jcfg.GlobalRounds = 1
	jcfg.StragglerTimeout = 500 * time.Millisecond
	groups, err := jcfg.PinAllGroups(sys)
	if err != nil {
		t.Fatal(err)
	}
	var mine []*grouping.Group
	for _, g := range groups {
		if g.Edge == 0 {
			mine = append(mine, g)
		}
	}
	if len(mine) < 2 || mine[0].Size() < 2 || mine[1].Size() < 2 {
		t.Fatalf("edge 0 needs two groups of two or more clients, has %d groups", len(mine))
	}
	var rules []faultnet.Rule
	for gi, action := range []faultnet.Action{faultnet.ActionDelay, faultnet.ActionReset} {
		for _, c := range mine[gi].Clients {
			rules = append(rules, faultnet.Rule{
				From: fmt.Sprintf("client/%d", c.ID), To: "edge/*", Type: "MaskedUpdate",
				Round: 0, Seq: 0, Action: action, DelayMs: 2000,
			})
		}
	}
	plan := &faultnet.Plan{Name: "two-failing-groups", Rules: rules}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	nw := faultnet.Wrap(NewMemNetwork(), plan, nil)

	cloudLn, err := listenTagged(nw, "cloud", "")
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(cloudLn)
	edgeLns := make([]net.Listener, len(sys.Edges))
	for e := range edgeLns {
		if edgeLns[e], err = listenTagged(nw, fmt.Sprintf("edge/%d", e), ""); err != nil {
			t.Fatal(err)
		}
		defer closeQuiet(edgeLns[e])
	}
	errs := make([]error, 1+len(edgeLns))
	cpu.Peers(len(errs), func(i int) {
		if i == 0 {
			_, errs[0] = NewCloud(sys, jcfg).Run(cloudLn)
			return
		}
		_, errs[i] = RunEdge(nw, sys, jcfg, i-1, edgeLns[i-1], cloudLn.Addr().String())
	})
	want := fmt.Sprintf("group %d round 0.0: 0 survivors below threshold", mine[0].ID)
	if errs[1] == nil || !strings.Contains(errs[1].Error(), want) {
		t.Fatalf("edge 0 returned %v, want the first group's %q", errs[1], want)
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

// runModelledRound runs the single-round API with K group rounds over every
// group on a faultnet network priced by ModelPlan: 5 ms at 25 MB/s
// client–edge, 40 ms at 5 MB/s edge–cloud, and E·H_i(n_i) of prof's compute
// before each client's masked update. It fails t unless the round's
// simulated duration equals the closed form over the frames' actual sizes to
// the nanosecond, every client's update waited out its own compute time, and
// the weights are Float64bits-equal to the same round on a bare MemNetwork,
// because the plan only delays. It returns the simulated duration.
func runModelledRound(t *testing.T, k int, prof cost.Profile) time.Duration {
	t.Helper()
	// Four groups; each edge holds two whose slowest members tie, so their
	// group models reach the edge–cloud link together.
	sys := testSystem(14, 10)
	jcfg := testJobConfig()
	jcfg.GroupRounds = k
	// A modelled client computes for seconds, past the 5 s default.
	jcfg.StragglerTimeout = time.Minute
	groups := grouping.FormAll(jcfg.Grouping, sys.Edges, sys.Classes, stats.NewRNG(jcfg.Seed).Split(1))
	selected := make([]int, len(groups))
	perEdge := make([]int, len(sys.Edges))
	for i, g := range groups {
		selected[i] = i
		perEdge[g.Edge]++
	}
	jcfg.SampleGroups = len(selected)
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	dim := len(global)

	bare, _, err := RunRound(NewMemNetwork(), sys, groups, selected, global, jcfg, "")
	if err != nil {
		t.Fatalf("K=%d: RunRound: %v", k, err)
	}
	if slices.Equal(bare, global) {
		t.Fatalf("K=%d: round did not change the global model", k)
	}

	clientEdge := faultnet.Link{DelayMs: 5, BytesPerMs: 25_000}
	edgeCloud := faultnet.Link{DelayMs: 40, BytesPerMs: 5_000}
	cross := func(l faultnet.Link, m wire.Message) time.Duration {
		return time.Duration(l.DelayMs)*time.Millisecond + time.Duration(m.EncodedSize())*time.Millisecond/time.Duration(l.BytesPerMs)
	}
	broadcast := cross(clientEdge, wire.Message{Floats: make([]float64, dim)})
	update := cross(clientEdge, wire.Message{Words: make([]uint64, dim)})
	report := cross(edgeCloud, wire.Message{Floats: make([]float64, dim), Ints: make([]int32, 2)})
	computeMs := make([]int, len(sys.Clients))
	for _, c := range sys.Clients {
		computeMs[c.ID] = int(math.Round(1000 * float64(jcfg.LocalEpochs) * prof.Training(c.NumSamples())))
	}
	// The closed form. An edge's groups start once the global model has
	// crossed its edge–cloud link and run K group rounds, each gated by the
	// slowest member. They report through the edge's one cloud connection, so
	// a group model ready while another is on that link waits behind it.
	var want time.Duration
	for e := range sys.Edges {
		down := cross(edgeCloud, wire.Message{Floats: make([]float64, dim), Ints: make([]int32, perEdge[e])})
		var ready []time.Duration
		for _, g := range groups {
			if g.Edge != e {
				continue
			}
			slowest := 0
			for _, c := range g.Clients {
				slowest = max(slowest, computeMs[c.ID])
			}
			ready = append(ready, down+time.Duration(k)*(broadcast+time.Duration(slowest)*time.Millisecond+update))
		}
		slices.Sort(ready)
		var free time.Duration
		for _, r := range ready {
			free = max(free, r) + report
		}
		want = max(want, free)
	}

	plan, err := faultnet.ModelPlan(clientEdge, edgeCloud, computeMs)
	if err != nil {
		t.Fatal(err)
	}
	nw := faultnet.Wrap(NewMemNetwork(), plan, nil)
	clk := nw.Clock()
	start := clk.Now()
	params, _, err := RunRound(nw, sys, groups, selected, global, jcfg, "")
	if err != nil {
		t.Fatalf("K=%d %s: RunRound on modelled links: %v", k, prof.Name, err)
	}
	got := clk.Now().Sub(start)
	if got != want {
		t.Errorf("K=%d %s: round took %v of simulated time, closed form %v", k, prof.Name, got, want)
	}
	for j := range params {
		if math.Float64bits(params[j]) != math.Float64bits(bare[j]) {
			t.Fatalf("K=%d %s: param %d is %x on modelled links, %x on a bare network", k, prof.Name, j, math.Float64bits(params[j]), math.Float64bits(bare[j]))
		}
	}
	waits := map[string]int{}
	for _, ev := range nw.Log().Events() {
		if ev.Type == wire.MaskedUpdate.String() {
			waits[ev.Link+" "+ev.Detail]++
		}
	}
	for _, g := range groups {
		for _, c := range g.Clients {
			key := fmt.Sprintf("client/%d→edge/%d delay=%dms", c.ID, g.Edge, computeMs[c.ID])
			if waits[key] != k {
				t.Errorf("K=%d %s: client %d's updates waited out its compute time %d times, want %d", k, prof.Name, c.ID, waits[key], k)
			}
		}
	}
	return got
}

// TestRunRoundMatchesHFLShape runs the single-round API over every group of
// the client–edge–cloud tree on modelled links, for K = 1, 2, 3 under both
// cost profiles, and holds each round to runModelledRound's closed form.
func TestRunRoundMatchesHFLShape(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for _, prof := range []cost.Profile{cost.CIFARProfile(), cost.SCProfile()} {
			runModelledRound(t, k, prof)
		}
	}
}

// TestModelledTimeScalesWithGroupRounds: each further group round adds a
// broadcast, the slowest member's compute and an update to the round's
// simulated duration, under either cost profile.
func TestModelledTimeScalesWithGroupRounds(t *testing.T) {
	for _, prof := range []cost.Profile{cost.CIFARProfile(), cost.SCProfile()} {
		var last time.Duration
		for k := 1; k <= 3; k++ {
			got := runModelledRound(t, k, prof)
			if got <= last {
				t.Errorf("%s: K=%d round took %v, K=%d %v", prof.Name, k, got, k-1, last)
			}
			last = got
		}
	}
}

// TestCostProfileDrivesComputeTime: the CIFAR profile's heavier per-sample
// training cost makes its modelled round outlast the SC profile's at every K.
func TestCostProfileDrivesComputeTime(t *testing.T) {
	for k := 1; k <= 3; k++ {
		cifar := runModelledRound(t, k, cost.CIFARProfile())
		sc := runModelledRound(t, k, cost.SCProfile())
		if cifar <= sc {
			t.Errorf("K=%d: the CIFAR profile's round took %v, the lighter SC profile's %v", k, cifar, sc)
		}
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

// TestRunJobRejectsBadConfig: T/K/E/LR/S, the formation, sampling and
// weighting configuration and the selection shape are the Trainer's to
// reject, which the cloud only builds once its edges have registered — so
// the rejection must be an error, never a panic on the caller's goroutine,
// and must also tear the started nodes down, not leave them waiting out
// their timeouts or behind the returned error.
func TestRunJobRejectsBadConfig(t *testing.T) {
	noLeaks := leakcheck.Check(t)
	for name, tc := range map[string]struct {
		mutate func(*JobConfig)
		want   string
	}{
		"K":              {func(c *JobConfig) { c.GroupRounds = 0 }, "T, K, E must be positive"},
		"LR":             {func(c *JobConfig) { c.LR = 0 }, "LR must be positive"},
		"S":              {func(c *JobConfig) { c.SampleGroups = 0 }, "SampleGroups must be positive"},
		"Grouping":       {func(c *JobConfig) { c.Grouping = nil }, "Grouping algorithm is required"},
		"FixedSelection": {func(c *JobConfig) { c.FixedSelection = [][]int{{0}} }, "fixed selection has 1 rounds, want 3"},
		"FixedDuplicate": {func(c *JobConfig) { c.FixedSelection = [][]int{{0, 0}, {0}, {0}} }, "fixed selection for round 0 names group 0 twice"},
		"InitParams":     {func(c *JobConfig) { c.InitParams = []float64{1} }, "InitParams length 1"},
		"MinGS":          {func(c *JobConfig) { c.Grouping = grouping.CoVGrouping{} }, "CoVG grouping: MinGS must be positive"},
		"Sampling":       {func(c *JobConfig) { c.Sampling = sampling.Method(99) }, "unknown sampling method 99"},
		"Weights":        {func(c *JobConfig) { c.Weights = sampling.WeightScheme(-1) }, "unknown weight scheme -1"},
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
		noLeaks()
	}
}

// TestCloudRejectsBadAggregateCounts answers the cloud's broadcast as a
// hand-written edge whose aggregate carries impossible drop and recovery
// counts. The job must end in an error naming the edge: not a panic in the
// round loop's dropout counter, and not a frame taken as zero drops.
func TestCloudRejectsBadAggregateCounts(t *testing.T) {
	sys := oneEdgeSystem(4, 21)
	jcfg := testJobConfig()
	jcfg.GlobalRounds = 1
	jcfg.Groups = []*grouping.Group{grouping.NewGroup(0, 0, sys.Edges[0], sys.Classes)}
	jcfg.FixedSelection = [][]int{{0}}
	for name, ints := range map[string][]int32{
		"negative drops": {-1, 0},
		"too many drops": {5, 0},
		"one int":        {0},
	} {
		nw := NewMemNetwork()
		ln, err := nw.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		edge := make(chan error, 1)
		go func() { edge <- badCountsEdge(nw, ln.Addr().String(), ints) }()
		_, err = NewCloud(sys, jcfg).Run(ln)
		closeQuiet(ln)
		if err == nil || !strings.Contains(err.Error(), "fednode: edge 0 reported drops and recoveries") {
			t.Errorf("%s: cloud returned %v, want an error naming edge 0's counts", name, err)
		}
		if err := <-edge; err != nil {
			t.Errorf("%s: edge: %v", name, err)
		}
	}
}

// badCountsEdge registers as edge 0, reads its assignment and the first
// broadcast, and reports every selected group with the model it was sent and
// ints as its drop and recovery counts. It returns nil once the cloud has
// hung up on it.
func badCountsEdge(nw Network, cloudAddr string, ints []int32) error {
	conn, err := nw.Dial(cloudAddr)
	if err != nil {
		return err
	}
	defer closeQuiet(conn)
	if _, err := wire.Encode(conn, &wire.Message{Type: wire.GroupAssign, From: 0}); err != nil {
		return err
	}
	for from := int32(0); from != -1; { // the assignment, closed by a From = -1 sentinel
		m, err := wire.Decode(conn, 0)
		if err != nil {
			return err
		}
		from = m.From
	}
	model, err := wire.Decode(conn, 0)
	if err != nil {
		return err
	}
	for _, gid := range model.Ints {
		agg := &wire.Message{Type: wire.GroupAggregate, Round: model.Round, From: gid, Floats: model.Floats, Ints: ints}
		if _, err := wire.Encode(conn, agg); err != nil {
			return err
		}
	}
	if m, err := wire.Decode(conn, 0); err == nil {
		return fmt.Errorf("cloud kept talking (%s frame) to an edge that reported impossible counts", m.Type)
	}
	return nil
}
