package hfl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/stats"
)

func testSystem(numClients int, seed uint64) *core.System {
	gen := data.FlatConfig(4, 8, seed)
	gen.Noise = 0.8
	return core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: numClients, Alpha: 0.4,
			MinSamples: 8, MaxSamples: 24, MeanSamples: 15, StdSamples: 5,
			Seed: seed + 1,
		},
		NumEdges:  2,
		TestSize:  200,
		NewModel:  func(s uint64) *nn.Sequential { return nn.NewMLP(8, []int{10}, 4, s) },
		ModelSeed: 7,
	})
}

func formGroups(sys *core.System) []*grouping.Group {
	alg := grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MaxCoV: 0.6, MergeLeftover: true}}
	return grouping.FormAll(alg, sys.Edges, sys.Classes, stats.NewRNG(3))
}

func roundConfig() RoundConfig {
	return RoundConfig{
		GroupRounds: 2, LocalEpochs: 1, BatchSize: 8, LR: 0.05, Seed: 9,
	}
}

func TestRunGlobalRoundBasic(t *testing.T) {
	sys := testSystem(12, 1)
	groups := formGroups(sys)
	if len(groups) < 2 {
		t.Fatalf("need >= 2 groups, got %d", len(groups))
	}
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	res, err := RunGlobalRound(sys, groups, []int{0, 1}, global, roundConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Params) != len(global) {
		t.Fatalf("params length %d", len(res.Params))
	}
	if res.WallClock <= 0 {
		t.Fatal("no wall-clock time recorded")
	}
	// cloud→edge, edge→cloud for each of 2 groups = 4 messages minimum.
	if res.Messages < 4 {
		t.Fatalf("only %d messages delivered", res.Messages)
	}
	if res.MaskStreams == 0 {
		t.Fatal("secure aggregation never ran")
	}
	// Fixed-point fidelity: the secure sums must match plaintext sums to
	// quantizer resolution.
	if res.QuantError > 1e-3 {
		t.Fatalf("quantization error %v too large", res.QuantError)
	}
}

func TestDistributedMatchesInProcessAggregation(t *testing.T) {
	// The distributed round must produce (numerically) the same parameters
	// as the in-process trainer's group logic for identical inputs: same
	// K, E, LR, same client RNG... the RNG derivations differ, so instead
	// verify against a *directly computed* plaintext reference using the
	// same helper.
	sys := testSystem(10, 2)
	groups := formGroups(sys)
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	cfg := roundConfig()

	res, err := RunGlobalRound(sys, groups, []int{0}, global, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Plaintext reference: run the same secureGroupRound math without
	// masking by recomputing client updates with the same seeds.
	g := groups[0]
	ref := append([]float64(nil), global...)
	for k := 0; k < cfg.GroupRounds; k++ {
		sum := make([]float64, len(ref))
		ng := float64(g.NumSamples())
		model := sys.NewModel(sys.ModelSeed)
		for _, c := range g.Clients {
			model.SetParamVector(ref)
			x, y := sys.ClientBatch(c)
			core.SGDUpdater{}.LocalTrain(model, x, y, core.LocalContext{
				ClientID: c.ID, Anchor: ref,
				Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.LR,
				Rng: stats.NewRNG(cfg.Seed ^ uint64(k) ^ uint64(c.ID+1)*0x165667b19e3779f9),
			})
			w := float64(c.NumSamples()) / ng
			for j, v := range model.ParamVector() {
				sum[j] += w * v
			}
		}
		ref = sum
	}
	// Single selected group ⇒ cloud weight 1; distributed params ≈ ref up
	// to quantization.
	maxDiff := 0.0
	for j := range ref {
		if d := math.Abs(res.Params[j] - ref[j]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Fatalf("distributed round diverges from plaintext reference by %v", maxDiff)
	}
}

func TestDistributedRoundImprovesModel(t *testing.T) {
	sys := testSystem(12, 3)
	groups := formGroups(sys)
	model := sys.NewModel(sys.ModelSeed)
	before, _ := core.Evaluate(model, sys.Test, 0)
	params := model.ParamVector()
	cfg := roundConfig()
	sel := []int{0}
	if len(groups) > 1 {
		sel = append(sel, 1)
	}
	// A few distributed global rounds.
	for r := 0; r < 5; r++ {
		cfg.Seed = uint64(100 + r)
		res, err := RunGlobalRound(sys, groups, sel, params, cfg)
		if err != nil {
			t.Fatal(err)
		}
		params = res.Params
	}
	model.SetParamVector(params)
	after, _ := core.Evaluate(model, sys.Test, 0)
	if after <= before {
		t.Fatalf("distributed training did not improve: %.3f -> %.3f", before, after)
	}
}

func TestWallClockScalesWithGroupRounds(t *testing.T) {
	sys := testSystem(10, 4)
	groups := formGroups(sys)
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	cfg := roundConfig()
	cfg.GroupRounds = 1
	r1, err := RunGlobalRound(sys, groups, []int{0}, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GroupRounds = 4
	r4, err := RunGlobalRound(sys, groups, []int{0}, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r4.WallClock <= r1.WallClock {
		t.Fatalf("K=4 wall clock %v should exceed K=1 %v", r4.WallClock, r1.WallClock)
	}
}

func TestMaskStreamsQuadraticInGroupSize(t *testing.T) {
	// Compare a small and a large single group.
	build := func(minGS int) (*core.System, []*grouping.Group) {
		sys := testSystem(2*minGS, 5)
		alg := grouping.CoVGrouping{Config: grouping.Config{MinGS: minGS, MergeLeftover: true}}
		return sys, grouping.FormAll(alg, [][]*data.Client{sys.Clients}, sys.Classes, stats.NewRNG(1))
	}
	cfg := roundConfig()
	cfg.GroupRounds = 1
	sysS, gS := build(4)
	resS, err := RunGlobalRound(sysS, gS, []int{0}, sysS.NewModel(7).ParamVector(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysL, gL := build(12)
	resL, err := RunGlobalRound(sysL, gL, []int{0}, sysL.NewModel(7).ParamVector(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizeRatio := float64(gL[0].Size()) / float64(gS[0].Size())
	opsRatio := float64(resL.MaskStreams) / float64(resS.MaskStreams)
	if opsRatio < sizeRatio*1.5 {
		t.Fatalf("mask streams not superlinear: size x%.1f but ops x%.1f", sizeRatio, opsRatio)
	}
}

func TestRunGlobalRoundErrors(t *testing.T) {
	sys := testSystem(8, 6)
	groups := formGroups(sys)
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	if _, err := RunGlobalRound(sys, groups, nil, global, roundConfig()); err == nil {
		t.Fatal("expected error for empty selection")
	}
	bad := roundConfig()
	bad.LR = 0
	if _, err := RunGlobalRound(sys, groups, []int{0}, global, bad); err == nil {
		t.Fatal("expected error for zero LR")
	}
	// Caller-supplied shapes the round would otherwise index or panic on.
	empty := append([]*grouping.Group{grouping.NewGroup(99, 0, nil, sys.Classes)}, groups...)
	for _, tc := range []struct {
		name     string
		groups   []*grouping.Group
		selected []int
		params   []float64
		want     string
	}{
		{"selected index past the groups", groups, []int{len(groups)}, global, "out of range"},
		{"negative selected index", groups, []int{-1}, global, "out of range"},
		{"empty group", empty, []int{0}, global, "has no clients"},
		{"short globalParams", groups, []int{0}, global[:len(global)-1], "globalParams has"},
		{"long globalParams", groups, []int{0}, append(global[:len(global):len(global)], 0), "globalParams has"},
	} {
		_, err := RunGlobalRound(sys, tc.groups, tc.selected, tc.params, roundConfig())
		if err == nil || !strings.HasPrefix(err.Error(), "hfl: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want an hfl: error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCostProfileDrivesComputeTime(t *testing.T) {
	sys := testSystem(8, 7)
	groups := formGroups(sys)
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	slow := roundConfig()
	slow.Profile = cost.Profile{Name: "slow", TrainPerSample: 100, TrainBase: 10,
		SecAggQuad: 0.01, SecAggLin: 0.01, BackdoorQuad: 0.01, BackdoorLin: 0.01, ScaffoldFactor: 2}
	fastRes, err := RunGlobalRound(sys, groups, []int{0}, global, roundConfig())
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := RunGlobalRound(sys, groups, []int{0}, global, slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.WallClock <= fastRes.WallClock {
		t.Fatalf("slower profile should take longer: %v vs %v", slowRes.WallClock, fastRes.WallClock)
	}
}

func TestDistributedRoundWithDropout(t *testing.T) {
	sys := testSystem(14, 8)
	alg := grouping.CoVGrouping{Config: grouping.Config{MinGS: 6, MergeLeftover: true}}
	groups := grouping.FormAll(alg, [][]*data.Client{sys.Clients}, sys.Classes, stats.NewRNG(1))
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	cfg := roundConfig()
	cfg.DropoutProb = 0.3
	cfg.ThresholdFrac = 0.5
	res, err := RunGlobalRound(sys, groups, []int{0}, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Quantization fidelity must survive the dropout-recovery path.
	if res.QuantError > 1e-3 {
		t.Fatalf("quantization error %v after dropout recovery", res.QuantError)
	}
	// The round still moved the model.
	moved := false
	for j := range global {
		if res.Params[j] != global[j] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("round produced no update despite survivors")
	}
}

func TestDistributedRoundDropoutDeterministic(t *testing.T) {
	sys := testSystem(12, 9)
	groups := formGroups(sys)
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	cfg := roundConfig()
	cfg.DropoutProb = 0.4
	a, err := RunGlobalRound(sys, groups, []int{0}, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGlobalRound(sys, groups, []int{0}, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Params {
		if a.Params[j] != b.Params[j] {
			t.Fatal("dropout path not deterministic")
		}
	}
}

// paramDigest is the SHA-256 of the parameters' IEEE-754 bit patterns: two
// vectors share a digest only when they are Float64bits-equal.
func paramDigest(params []float64) string {
	buf := make([]byte, 8*len(params))
	for i, v := range params {
		binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestRunGlobalRoundArrivalOrderPinned pins a three-group round whose group
// models reach the cloud in the reverse of their selection order: the
// selection lists the groups by descending slowest client, so the first
// selected finishes last. The cloud folds the group models in arrival order
// and float addition is not associative, so the digests hold that order,
// along with the modelled wall clock and the message and mask-stream counts.
func TestRunGlobalRoundArrivalOrderPinned(t *testing.T) {
	sys := testSystem(18, 1)
	groups := formGroups(sys)
	selected := []int{1, 4, 0}
	prev := math.MaxInt
	for _, gi := range selected {
		slowest := 0
		for _, c := range groups[gi].Clients {
			if c.NumSamples() > slowest {
				slowest = c.NumSamples()
			}
		}
		if slowest >= prev {
			t.Fatalf("group %d's slowest client holds %d samples, the group selected before it %d: arrival order would not be the reverse of selection", gi, slowest, prev)
		}
		prev = slowest
	}
	global := sys.NewModel(sys.ModelSeed).ParamVector()
	for _, tc := range []struct {
		dropout     float64
		params      string
		wallClock   uint64
		maskStreams int
	}{
		{0, "c8340e75d8bcb2d5", 0x403719c0f14c5dfd, 124},
		{0.3, "88a8538358d9ae2c", 0x403719c0f14c5dfd, 114},
	} {
		cfg := roundConfig()
		cfg.DropoutProb = tc.dropout
		res, err := RunGlobalRound(sys, groups, selected, global, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := paramDigest(res.Params); got != tc.params {
			t.Errorf("dropout %v: parameter digest %s, pinned %s", tc.dropout, got, tc.params)
		}
		if got := math.Float64bits(res.WallClock); got != tc.wallClock {
			t.Errorf("dropout %v: wall clock bits %#x (%v), pinned %#x", tc.dropout, got, res.WallClock, tc.wallClock)
		}
		if res.Messages != 2*len(selected) || res.MaskStreams != tc.maskStreams {
			t.Errorf("dropout %v: %d messages, %d mask streams; pinned %d and %d",
				tc.dropout, res.Messages, res.MaskStreams, 2*len(selected), tc.maskStreams)
		}
	}
}
