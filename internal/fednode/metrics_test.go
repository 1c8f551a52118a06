package fednode

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/wire"
)

// oneEdgeSystem builds a population whose clients all live on one edge, so
// a single grouping.NewGroup over sys.Edges[0] is a complete assignment.
func oneEdgeSystem(numClients int, seed uint64) *core.System {
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	return core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: numClients, Alpha: 0.5,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: seed + 1,
		},
		NumEdges: 1,
		TestSize: 100,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{8}, 4, s)
		},
		ModelSeed: 7,
	})
}

// TestWireCountersMatchCodec runs a seeded loopback job with an external
// registry and asserts the per-message-type fel_wire_* counters sum to
// exactly the Report's codec-accounted totals — which the existing
// cross-check ties to the transport bytes that actually moved.
func TestWireCountersMatchCodec(t *testing.T) {
	sys := testSystem(10, 3)
	jcfg := testJobConfig()
	jcfg.GlobalRounds = 2
	reg := metrics.New()
	jcfg.Meter = NewMeter(reg)
	rep, err := RunJob(NewMemNetwork(), sys, jcfg, "")
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if rep.WireWritten != rep.AccountedBytes {
		t.Fatalf("transport wrote %d bytes but codec accounted %d", rep.WireWritten, rep.AccountedBytes)
	}
	var byteSum, frameSum int64
	for typ := wire.GlobalModel; typ <= wire.GlobalAggregate; typ++ {
		tl := metrics.L("type", typ.String())
		byteSum += reg.CounterValue("fel_wire_bytes_total", tl)
		frameSum += reg.CounterValue("fel_wire_frames_total", tl)
	}
	if byteSum != rep.AccountedBytes {
		t.Fatalf("per-type byte counters sum to %d, report accounted %d", byteSum, rep.AccountedBytes)
	}
	if frameSum != rep.Frames {
		t.Fatalf("per-type frame counters sum to %d, report counted %d", frameSum, rep.Frames)
	}
	if byteSum != reg.CounterValue("fel_net_written_bytes_total") {
		t.Fatalf("accounted %d bytes but transport counter saw %d", byteSum, reg.CounterValue("fel_net_written_bytes_total"))
	}
	for _, typ := range []wire.Type{wire.GlobalModel, wire.GroupAssign, wire.MaskedUpdate, wire.GroupAggregate, wire.GlobalAggregate} {
		if reg.CounterValue("fel_wire_frames_total", metrics.L("type", typ.String())) == 0 {
			t.Fatalf("no %s frames counted on a full job", typ)
		}
	}
	if n := reg.CounterValue("fel_wire_frames_total", metrics.L("type", wire.ShareReveal.String())); n != 0 {
		t.Fatalf("clean run counted %d ShareReveal frames", n)
	}
}

// TestSecaggOpsQuadratic pins the O_g(|g|) = O(|g|^2) secure-aggregation
// overhead (Eq. 5 / Fig. 8) through the published metrics: on a clean
// (T=1, K=1) run over a single group of size n, the n client sessions
// expand n mask streams each and the edge session removes n personal
// masks, so fel_secagg_mask_streams_total{gs="n"} must be exactly n^2+n.
func TestSecaggOpsQuadratic(t *testing.T) {
	for _, n := range []int{4, 8} {
		sys := oneEdgeSystem(n, 21)
		jcfg := testJobConfig()
		jcfg.GlobalRounds, jcfg.GroupRounds = 1, 1
		jcfg.Groups = []*grouping.Group{grouping.NewGroup(0, 0, sys.Edges[0], sys.Classes)}
		jcfg.FixedSelection = [][]int{{0}}
		reg := metrics.New()
		jcfg.Meter = NewMeter(reg)
		if _, err := RunJob(NewMemNetwork(), sys, jcfg, ""); err != nil {
			t.Fatalf("RunJob (n=%d): %v", n, err)
		}
		gs := metrics.L("gs", strconv.Itoa(n))
		want := int64(n*n + n)
		if got := reg.CounterValue("fel_secagg_mask_streams_total", gs); got != want {
			t.Fatalf("group size %d expanded %d mask streams, want %d", n, got, want)
		}
		if got := reg.CounterValue("fel_secagg_shares_dealt_total", gs); got == 0 {
			t.Fatalf("group size %d dealt no shares", n)
		}
	}
}

// TestSecaggSpansCounted pins what fel_fednode_secagg_seconds times on a
// clean job over one group of four and two singletons, every group selected
// every round: one client observation per masked exchange and one edge
// observation per aggregated group round, while the singletons — which ship
// plaintext — train without masking.
func TestSecaggSpansCounted(t *testing.T) {
	sys := oneEdgeSystem(6, 21)
	jcfg := testJobConfig()
	jcfg.GlobalRounds, jcfg.GroupRounds = 2, 2
	edge := sys.Edges[0]
	jcfg.Groups = []*grouping.Group{
		grouping.NewGroup(0, 0, edge[:4], sys.Classes),
		grouping.NewGroup(1, 0, edge[4:5], sys.Classes),
		grouping.NewGroup(2, 0, edge[5:], sys.Classes),
	}
	jcfg.FixedSelection = [][]int{{0, 1, 2}, {0, 1, 2}}
	reg := metrics.New()
	jcfg.Meter = NewMeter(reg)
	if _, err := RunJob(NewMemNetwork(), sys, jcfg, ""); err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	groupRounds := jcfg.GlobalRounds * jcfg.GroupRounds
	snap := reg.Snapshot()
	for series, want := range map[string]int{
		`fel_fednode_secagg_seconds_count{role="client"}`:      4 * groupRounds,
		`fel_fednode_secagg_seconds_count{role="edge"}`:        groupRounds,
		`fel_fednode_local_train_seconds_count{role="client"}`: 6 * groupRounds,
	} {
		if line := fmt.Sprintf("%s %d\n", series, want); !strings.Contains(snap, line) {
			t.Errorf("snapshot lacks %q:\n%s", line, snap)
		}
	}
}

// TestDropoutMetricsMatchReport injects the mid-round reset from
// TestMidRoundDisconnectRecovers and asserts the fel_fednode_* counters
// agree with the Report: one dropout, a recovery per remaining group round
// of the wounded group, revealed shares, no restart — and no straggler
// timeouts, since a closed pipe is a connection error, not a missed
// deadline.
func TestDropoutMetricsMatchReport(t *testing.T) {
	sys := testSystem(12, 5)
	jcfg := testJobConfig()
	jcfg.GlobalRounds = 2
	jcfg.StragglerTimeout = 2 * time.Second
	nw, victim := dropFirstMember(t, sys, &jcfg, 0)
	reg := metrics.New()
	jcfg.Meter = NewMeter(reg)

	rep, err := RunJob(nw, sys, jcfg, "")
	if err != nil {
		t.Fatalf("RunJob with disconnect: %v", err)
	}
	checkCasualty(t, rep, victim)
	if got := reg.CounterValue("fel_fednode_dropouts_total"); got != int64(rep.Dropouts) {
		t.Fatalf("dropout counter %d, report %d", got, rep.Dropouts)
	}
	if got := reg.CounterValue("fel_fednode_recoveries_total"); got != int64(rep.Recoveries) {
		t.Fatalf("recovery counter %d, report %d", got, rep.Recoveries)
	}
	if got := reg.CounterValue("fel_fednode_shares_revealed_total"); got == 0 {
		t.Fatal("recovery ran but no shares were counted as revealed")
	}
	if got := reg.CounterValue("fel_wire_frames_total", metrics.L("type", wire.ShareReveal.String())); got == 0 {
		t.Fatal("recovery ran but no ShareReveal frames were counted")
	}
	if got := reg.CounterValue("fel_fednode_straggler_timeouts_total"); got != 0 {
		t.Fatalf("closed-pipe drop counted %d straggler timeouts", got)
	}
	if got := reg.CounterValue("fel_fednode_client_restarts_total"); got != 0 {
		t.Fatalf("%d restarts with no restart budget", got)
	}
}

// TestJobSnapshotDeterministic runs the same seeded loopback job twice on
// fresh registries and requires the timing-masked snapshots to be
// byte-identical — the determinism contract the trace tables and the
// felbench JSON dumps rely on.
func TestJobSnapshotDeterministic(t *testing.T) {
	snap := func() string {
		sys := testSystem(10, 3)
		jcfg := testJobConfig()
		jcfg.GlobalRounds = 2
		reg := metrics.New()
		jcfg.Meter = NewMeter(reg)
		if _, err := RunJob(NewMemNetwork(), sys, jcfg, ""); err != nil {
			t.Fatalf("RunJob: %v", err)
		}
		return metrics.MaskTimings(reg.Snapshot())
	}
	a, b := snap(), snap()
	if a != b {
		t.Fatalf("masked snapshots differ between identical seeded runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{"fel_wire_bytes_total", "fel_net_written_bytes_total", "fel_fednode_round_seconds_count", "fel_fednode_secagg_seconds_count", "fel_secagg_mask_streams_total", "fel_core_group_selected_total", "fel_core_group_prob"} {
		if !strings.Contains(a, want) {
			t.Fatalf("snapshot is missing %s:\n%s", want, a)
		}
	}
}

// truncatingClient speaks just enough of the protocol to be client id, then
// answers the first broadcast with a masked update of half the model's
// length. It returns nil once the edge has hung up on it.
func truncatingClient(nw Network, edgeAddr string, id int) error {
	conn, err := nw.Dial(edgeAddr)
	if err != nil {
		return err
	}
	defer closeQuiet(conn)
	if _, err := wire.Encode(conn, &wire.Message{Type: wire.GroupAssign, From: int32(id)}); err != nil {
		return err
	}
	if _, err := wire.Decode(conn, 0); err != nil { // the group assignment
		return err
	}
	model, err := wire.Decode(conn, 0)
	if err != nil {
		return err
	}
	short := &wire.Message{
		Type: wire.MaskedUpdate, Round: model.Round, Seq: model.Seq, From: int32(id),
		Words: make([]uint64, len(model.Floats)/2),
	}
	if _, err := wire.Encode(conn, short); err != nil {
		return err
	}
	if m, err := wire.Decode(conn, 0); err == nil {
		return fmt.Errorf("edge kept talking (%s frame) to a client that sent a truncated update", m.Type)
	}
	return nil
}

// TestTruncatedUpdateBecomesDropout sends the edge a well-framed
// MaskedUpdate carrying too few words. The frame passes the codec, so the
// edge itself must reject it at collect time exactly like a corrupt frame:
// the member becomes a secagg dropout, its masks are recovered from the
// survivors' shares, and the job finishes — where an unchecked vector would
// index past its end inside Aggregate and take the edge process down.
func TestTruncatedUpdateBecomesDropout(t *testing.T) {
	sys := oneEdgeSystem(4, 21)
	jcfg := testJobConfig()
	jcfg.GlobalRounds, jcfg.GroupRounds = 2, 1
	jcfg.StragglerTimeout = 2 * time.Second
	jcfg.Groups = []*grouping.Group{grouping.NewGroup(0, 0, sys.Edges[0], sys.Classes)}
	jcfg.FixedSelection = [][]int{{0}, {0}}
	reg := metrics.New()
	m := NewMeter(reg)

	nw := NewMemNetwork()
	cloudLn, err := nw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(cloudLn)
	edgeLn, err := nw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(edgeLn)
	edgeAddr := edgeLn.Addr().String()

	rogue := sys.Edges[0][0].ID
	errs := make(chan error, 1+len(sys.Edges[0]))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- NewEdge(0, sys, jcfg, m).Run(nw, edgeLn, cloudLn.Addr().String())
	}()
	for _, cl := range sys.Edges[0] {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if id == rogue {
				errs <- truncatingClient(nw, edgeAddr, id)
				return
			}
			_, err := NewClient(id, sys, jcfg, m).Run(nw, edgeAddr)
			errs <- err
		}(cl.ID)
	}
	rep, err := NewCloud(sys, jcfg, m).Run(cloudLn)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatalf("cloud: %v", err)
	}
	for err := range errs {
		if err != nil {
			t.Fatalf("node: %v", err)
		}
	}
	if rep.RoundsRun != jcfg.GlobalRounds {
		t.Fatalf("ran %d rounds, want %d", rep.RoundsRun, jcfg.GlobalRounds)
	}
	// The rogue stays excluded, so both rounds' single group round recover.
	if rep.Dropouts != 1 || rep.Recoveries != 2 {
		t.Fatalf("report counts %d dropouts / %d recoveries, want 1 / 2", rep.Dropouts, rep.Recoveries)
	}
	if got := reg.CounterValue("fel_fednode_dropouts_total"); got != 1 {
		t.Fatalf("dropout counter %d, want 1", got)
	}
	if got := reg.CounterValue("fel_fednode_straggler_timeouts_total"); got != 0 {
		t.Fatalf("a rejected update counted %d straggler timeouts", got)
	}
}

// TestRejoinRejectionsCounted dials a registered edge's listener the way a
// broken crash-restart would — a hello naming a client this edge never
// seated, then sixteen bytes that are no frame header — and requires each
// rejection counted exactly once under its reason, while the job the edge is
// serving finishes untouched. The test speaks the cloud's side: an
// assignment, then the shutdown broadcast once both rejections are in.
func TestRejoinRejectionsCounted(t *testing.T) {
	sys := oneEdgeSystem(3, 21)
	jcfg := testJobConfig()
	reg := metrics.New()
	m := NewMeter(reg)
	nw := NewMemNetwork()
	cloudLn, err := nw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(cloudLn)
	edgeLn, err := nw.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(edgeLn)
	edgeAddr := edgeLn.Addr().String()

	errs := make(chan error, 1+len(sys.Clients))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- NewEdge(0, sys, jcfg, m).Run(nw, edgeLn, cloudLn.Addr().String())
	}()
	for _, cl := range sys.Clients {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := NewClient(id, sys, jcfg, m).Run(nw, edgeAddr)
			errs <- err
		}(cl.ID)
	}

	cloud, err := cloudLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuiet(cloud)
	if hello, err := wire.Decode(cloud, 0); err != nil || hello.Type != wire.GroupAssign {
		t.Fatalf("edge registration: %v", err)
	}
	members := make([]int32, len(sys.Clients))
	for i, cl := range sys.Clients {
		members[i] = int32(cl.ID)
	}
	for _, msg := range []*wire.Message{
		{Type: wire.GroupAssign, From: 0, Ints: members},
		{Type: wire.GroupAssign, From: -1},
	} {
		// A pipe write returns once the edge has read the frame: after the
		// sentinel, registration is over and every dial meets the rejoin loop.
		if _, err := wire.Encode(cloud, msg); err != nil {
			t.Fatal(err)
		}
	}

	rogue := func(first []byte) {
		conn, err := nw.Dial(edgeAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer closeQuiet(conn)
		if _, err := conn.Write(first); err != nil {
			t.Fatal(err)
		}
		// The edge counts a rejection before it closes the connection.
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("the edge answered a connection it should have rejected")
		}
	}
	foreign, err := wire.AppendFrame(nil, &wire.Message{Type: wire.GroupAssign, From: 999})
	if err != nil {
		t.Fatal(err)
	}
	rogue(foreign)
	rogue([]byte(strings.Repeat("\xff", wire.HeaderSize)))

	params := sys.NewModel(sys.ModelSeed).ParamVector()
	if _, err := wire.Encode(cloud, &wire.Message{Type: wire.GlobalAggregate, Floats: params}); err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.Decode(cloud, 0); err != nil || ack.Type != wire.GlobalAggregate {
		t.Fatalf("shutdown ack: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("node: %v", err)
		}
	}
	for reason, want := range map[string]int64{"bad_hello": 1, "foreign": 1, "replay": 0, "queue_full": 0, "shutdown": 0} {
		if got := reg.CounterValue("fel_fednode_rejoin_rejected_total", metrics.L("reason", reason)); got != want {
			t.Errorf("fel_fednode_rejoin_rejected_total{reason=%q} = %d, want %d", reason, got, want)
		}
	}
	if got := reg.CounterValue("fel_wire_decode_errors_total", metrics.L("reason", "bad_magic")); got != 1 {
		t.Errorf("fel_wire_decode_errors_total{reason=\"bad_magic\"} = %d, want 1", got)
	}
	if got := reg.CounterValue("fel_fednode_rejoins_total"); got != 0 {
		t.Errorf("%d rejoins adopted, want 0", got)
	}
}
