package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// wholeEdgeGrouping forms exactly one group per edge holding every client —
// the property tests use it to pin the group size precisely.
type wholeEdgeGrouping struct{}

func (wholeEdgeGrouping) Name() string { return "WholeEdge" }

func (wholeEdgeGrouping) Validate() error { return nil }

func (wholeEdgeGrouping) Form(clients []*data.Client, classes, edge, firstID int, _ *stats.RNG) []*grouping.Group {
	return []*grouping.Group{grouping.NewGroup(firstID, edge, clients, classes)}
}

// asyncTestSystem is a single-edge population of exactly n clients, sized
// for speed: the whole-edge grouping turns it into one group of n.
func asyncTestSystem(n int, seed uint64) *System {
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	return NewSystem(SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: n, Alpha: 0.5,
			MinSamples: 8, MaxSamples: 16, MeanSamples: 12, StdSamples: 3,
			Seed: seed + 1,
		},
		NumEdges: 1,
		TestSize: 64,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{8}, 4, s)
		},
		ModelSeed: 7,
	})
}

func asyncTestConfig() Config {
	return Config{
		GlobalRounds: 2, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 8, LR: 0.05, SampleGroups: 1,
		Grouping:    wholeEdgeGrouping{},
		Sampling:    sampling.Random,
		Weights:     sampling.Biased,
		Seed:        42,
		DropoutProb: 0.3,
		CostProfile: cost.CIFARProfile(),
		CostOps:     cost.DefaultOps(),
	}
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAsyncAlphaZeroFullBufferEquivalence is the tentpole property: with a
// full buffer and α=0, buffered-async aggregation must reduce to exactly
// the synchronous tree-aggregation result — Float64bits-equal — for every
// group size 1..33 and MaxParallel ∈ {1,2,8}, under a straggler-storm
// delay model that scrambles the arrival permutation — and take exactly the
// synchronous barrier's logical ticks. The flush consumes the whole
// membership in canonical client order, so no permutation and no worker
// interleaving may leak into the fold. Sync runs on the same machine with
// the threshold fixed at n (async_engine.go), so this holds by construction;
// the test keeps FlushThreshold and the counted path honest.
func TestAsyncAlphaZeroFullBufferEquivalence(t *testing.T) {
	for n := 1; n <= 33; n++ {
		sys := asyncTestSystem(n, uint64(100+n))

		ref := asyncTestConfig()
		ref.MaxParallel = 1
		ref.Async.Delays = async.StragglerStorm() // the barrier, priced on the draws below
		sync := Train(sys, ref)

		for _, par := range []int{1, 2, 8} {
			cfg := asyncTestConfig()
			cfg.MaxParallel = par
			reg := metrics.New()
			cfg.Metrics = reg
			cfg.Async = async.Config{
				Mode:       async.Buffered,
				Alpha:      0,
				BufferFrac: 1,
				Delays:     async.StragglerStorm(),
			}
			res := Train(sys, cfg)
			if !sameFloatBits(sync.Params, res.Params) {
				t.Fatalf("n=%d par=%d: async α=0 full-buffer weights diverge from sync", n, par)
			}
			if res.Dropouts != sync.Dropouts {
				t.Fatalf("n=%d par=%d: async dropouts %d, sync %d", n, par, res.Dropouts, sync.Dropouts)
			}
			if res.UplinkBytes != sync.UplinkBytes {
				t.Fatalf("n=%d par=%d: async uplink %d, sync %d", n, par, res.UplinkBytes, sync.UplinkBytes)
			}
			if res.LogicalTicks != sync.LogicalTicks || res.LogicalTicks == 0 {
				t.Fatalf("n=%d par=%d: async ticks %d, sync %d", n, par, res.LogicalTicks, sync.LogicalTicks)
			}
			checkAsyncAccounting(t, res, reg)
		}
	}
}

// TestAsyncFullBufferEquivalenceAnyAlpha pins the stronger structural
// fact behind the α=0 gate: at a full buffer every update folds at
// staleness zero, where w(τ)=1 for every α, so the equivalence cannot
// depend on the discount at all.
func TestAsyncFullBufferEquivalenceAnyAlpha(t *testing.T) {
	sys := asyncTestSystem(9, 7)
	ref := asyncTestConfig()
	ref.MaxParallel = 1
	sync := Train(sys, ref)
	for _, alpha := range []float64{0.5, 2} {
		cfg := asyncTestConfig()
		cfg.Async = async.Config{
			Mode: async.Buffered, Alpha: alpha, BufferFrac: 1,
			Delays: async.StragglerStorm(),
		}
		if res := Train(sys, cfg); !sameFloatBits(sync.Params, res.Params) {
			t.Fatalf("α=%v full-buffer weights diverge from sync", alpha)
		}
	}
}

// TestSemiSyncLargeDeadlineMatchesSync: a deadline no update can miss
// degenerates semi-sync to the synchronous schedule — every round folds
// the full membership at staleness zero.
func TestSemiSyncLargeDeadlineMatchesSync(t *testing.T) {
	sys := asyncTestSystem(8, 11)
	ref := asyncTestConfig()
	sync := Train(sys, ref)
	cfg := asyncTestConfig()
	cfg.Async = async.Config{
		Mode: async.SemiSync, Alpha: 0.5, DeadlineTicks: 1 << 20,
		Delays: async.StragglerStorm(),
	}
	res := Train(sys, cfg)
	if !sameFloatBits(sync.Params, res.Params) {
		t.Fatal("semi-sync with an unmissable deadline diverges from sync")
	}
	if res.Carryovers != 0 || res.LateDrops != 0 {
		t.Fatalf("unmissable deadline produced %d carryovers, %d late drops", res.Carryovers, res.LateDrops)
	}
}

// asyncModeConfigs are the non-degenerate configurations the replay and
// resume regressions sweep: a partial buffer with a real staleness
// discount, and a tight semi-sync deadline that forces carryovers.
func asyncModeConfigs() map[string]async.Config {
	return map[string]async.Config{
		"buffered": {
			Mode: async.Buffered, Alpha: 0.5, BufferFrac: 0.5,
			Delays: async.StragglerStorm(),
		},
		"semisync": {
			Mode: async.SemiSync, Alpha: 0.5, DeadlineTicks: 30,
			Delays: async.StragglerStorm(),
		},
	}
}

// TestAsyncReplayIdentical is the replay regression: for each async mode,
// two runs from the same seed — and runs at MaxParallel 1 vs 8 — produce
// byte-identical timing-masked metric snapshots, the staleness and
// buffer-depth histograms of every arrival and flush among them, and
// Float64bits-equal final weights.
func TestAsyncReplayIdentical(t *testing.T) {
	for name, acfg := range asyncModeConfigs() {
		t.Run(name, func(t *testing.T) {
			sys := asyncTestSystem(12, 3)
			var refSnap string
			var refParams []float64
			for i, par := range []int{1, 1, 8} {
				cfg := asyncTestConfig()
				cfg.GlobalRounds = 3
				cfg.MaxParallel = par
				reg := metrics.New()
				cfg.Metrics = reg
				cfg.Async = acfg
				res := Train(sys, cfg)
				snap := metrics.MaskTimings(reg.Snapshot())
				if seriesValue(t, reg, "fel_async_staleness_count") == 0 || seriesValue(t, reg, "fel_async_buffer_depth_count") == 0 {
					t.Fatalf("no arrival or flush observed:\n%s", snap)
				}
				if i == 0 {
					refSnap = snap
					refParams = res.Params
					continue
				}
				if snap != refSnap {
					t.Fatalf("run %d (par %d): masked metric snapshot diverges:\n%s\nfirst run:\n%s", i, par, snap, refSnap)
				}
				if !sameFloatBits(refParams, res.Params) {
					t.Fatalf("run %d (par %d): final weights diverge", i, par)
				}
			}
		})
	}
}

// TestAsyncTrainerResume checks the mid-run boundary: exporting after 2 of
// 4 rounds and resuming yields the same final weights and logical-clock
// totals as the uninterrupted run — which takes the adaptive sampler's EWMA
// state surviving the checkpoint for the remaining selections to replay.
func TestAsyncTrainerResume(t *testing.T) {
	for name, acfg := range asyncModeConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg := asyncTestConfig()
			cfg.GlobalRounds = 4
			cfg.Async = acfg
			cfg.AdaptiveSampling = &sampling.AdaptiveConfig{Beta: 0.3, Explore: 0.1}

			full := Train(asyncTestSystem(12, 5), cfg)

			sys := asyncTestSystem(12, 5)
			tr := NewTrainer(sys, cfg)
			tr.Step()
			tr.Step()
			st, err := tr.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			tr2, err := NewTrainerResumed(asyncTestSystem(12, 5), cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			for !tr2.Done() {
				tr2.Step()
			}
			res := tr2.Finish()
			if !sameFloatBits(full.Params, res.Params) {
				t.Fatal("resumed weights diverge from uninterrupted run")
			}
			if full.Carryovers != res.Carryovers || full.LateDrops != res.LateDrops || full.LogicalTicks != res.LogicalTicks {
				t.Fatalf("resumed counters diverge: carry %d/%d late %d/%d ticks %d/%d",
					full.Carryovers, res.Carryovers, full.LateDrops, res.LateDrops,
					full.LogicalTicks, res.LogicalTicks)
			}
		})
	}
}

// checkAsyncAccounting holds an async run's books to each other. arrive
// observes one staleness per update that lands, so every arrival folds
// exactly once when fel_async_folds_total equals the fel_async_staleness
// count; each flush observes one buffer depth; and the carryover and late
// counters count what the Result counts.
func checkAsyncAccounting(t *testing.T, res *Result, reg *metrics.Registry) {
	t.Helper()
	for _, c := range []struct {
		name string
		want float64
	}{
		{"fel_async_folds_total", seriesValue(t, reg, "fel_async_staleness_count")},
		{"fel_async_flushes_total", seriesValue(t, reg, "fel_async_buffer_depth_count")},
		{"fel_async_carryover_total", float64(res.Carryovers)},
		{"fel_async_late_total", float64(res.LateDrops)},
	} {
		if got := reg.CounterValue(c.name); float64(got) != c.want {
			t.Errorf("%s = %d, want %v", c.name, got, c.want)
		}
	}
	if reg.CounterValue("fel_async_flushes_total") == 0 {
		t.Error("the run flushed no buffer")
	}
}

// seriesValue reads one sample of reg's snapshot, such as a histogram's
// name_count; a series the registry does not hold reads 0.
func seriesValue(t *testing.T, reg *metrics.Registry, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(reg.Snapshot(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	return 0
}

// TestAsyncSemiSyncCarriesAndLateDrops forces the carryover machinery: a
// deadline shorter than the base delay means no update ever makes its own
// round, so every fold happens at positive staleness and the final
// deadline strands in-flight updates as late drops. With no dropout the
// books balance (checkAsyncAccounting).
func TestAsyncSemiSyncCarriesAndLateDrops(t *testing.T) {
	cfg := asyncTestConfig()
	cfg.DropoutProb = 0
	reg := metrics.New()
	cfg.Metrics = reg
	cfg.Async = async.Config{
		Mode: async.SemiSync, Alpha: 0.5, DeadlineTicks: 8,
		// Delays of 10..20 against a K·D = 16 horizon: every update misses
		// its round deadline, and the tail outlives the whole schedule.
		Delays: async.DelayModel{BaseTicks: 10, JitterTicks: 10},
	}
	res := Train(asyncTestSystem(6, 9), cfg)
	if res.Carryovers == 0 {
		t.Fatal("tight deadline produced no carryovers")
	}
	if res.LateDrops == 0 {
		t.Fatal("tight deadline produced no late drops")
	}
	// Every group spends exactly K·D ticks per global round, and rounds sum.
	want := int64(res.RoundsRun) * int64(cfg.GroupRounds) * cfg.Async.DeadlineTicks
	if res.LogicalTicks != want {
		t.Fatalf("semi-sync logical ticks %d, want %d", res.LogicalTicks, want)
	}
	checkAsyncAccounting(t, res, reg)
}

// TestAsyncTicksBeatSyncUnderStragglers is the scheduling win in
// miniature: under the straggler-storm clock the synchronous barrier pays
// the max of every round's draws while buffered chains only pay their own,
// so async completes the same workload in strictly fewer logical ticks. The
// half buffer folds lagged updates, every dispatch lands once as an arrival
// or a drop, and the books balance (checkAsyncAccounting).
func TestAsyncTicksBeatSyncUnderStragglers(t *testing.T) {
	sys := asyncTestSystem(12, 13)
	ref := asyncTestConfig()
	ref.GlobalRounds = 3
	ref.Async.Delays = async.StragglerStorm() // sync mode, priced on the clock
	sync := Train(sys, ref)
	if sync.LogicalTicks == 0 {
		t.Fatal("sync run with delays enabled recorded no ticks")
	}
	cfg := asyncTestConfig()
	cfg.GlobalRounds = 3
	reg := metrics.New()
	cfg.Metrics = reg
	cfg.Async = async.Config{
		Mode: async.Buffered, Alpha: 0.5, BufferFrac: 0.5,
		Delays: async.StragglerStorm(),
	}
	res := Train(sys, cfg)
	if res.LogicalTicks >= sync.LogicalTicks {
		t.Fatalf("buffered ticks %d, want < sync %d", res.LogicalTicks, sync.LogicalTicks)
	}
	if seriesValue(t, reg, "fel_async_staleness_sum") == 0 {
		t.Error("buffered run observed no staleness; BufferFrac 0.5 should lag some dispatches")
	}
	arrivals := int(seriesValue(t, reg, "fel_async_staleness_count"))
	if got, want := arrivals+res.Dropouts, res.RoundsRun*cfg.GroupRounds*12; got != want {
		t.Errorf("%d arrivals + drops, want one per dispatch: T·K·n = %d", got, want)
	}
	checkAsyncAccounting(t, res, reg)
}

// TestAsyncConfigValidation exercises the config guards end to end.
func TestAsyncConfigValidation(t *testing.T) {
	bad := []async.Config{
		{Mode: async.Mode(9)},
		{Mode: async.Buffered, Alpha: -1},
		{Mode: async.Buffered, BufferFrac: 1.5},
		{Mode: async.Buffered, BufferFrac: math.NaN()},
		{Mode: async.SemiSync},
		{Mode: async.Buffered, Delays: async.DelayModel{BaseTicks: -1}},
		{Mode: async.Buffered, Delays: async.DelayModel{BaseTicks: 1, StragglerProb: 2}},
		{Delays: async.DelayModel{BaseTicks: 1, StragglerProb: math.NaN(), StragglerFactor: 2}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted a bad config", i, c)
		}
	}
	for i, c := range []async.Config{
		{},
		{Mode: async.Buffered, Alpha: 0.5, BufferFrac: 0.5, Delays: async.StragglerStorm()},
		{Mode: async.SemiSync, DeadlineTicks: 10, Delays: async.SlowLinks()},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected a good config: %v", i, err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("compressor + async mode did not panic")
			}
		}()
		cfg := asyncTestConfig()
		cfg.Async.Mode = async.Buffered
		// The panic fires in validate before the factory is ever called.
		cfg.NewCompressor = func() compress.Compressor { return nil }
		Train(asyncTestSystem(4, 1), cfg)
	}()
}

// TestSyncGroupRoundPinned holds a synchronous run to what the bulk-
// synchronous group loop produced before Sync became the machine's full
// buffer (recorded at PR 27's tree, where runGroup folded, reduceGroup
// accounted and syncGroupTicks priced the barrier): straggler-storm delays,
// a top-k compressor, and a dropout rate at which 6 of the run's 30 group
// rounds lose all three clients and carry the group model over. Ticks,
// dropouts, uplink bytes, weights and the whole timing-masked metric surface
// — one group-aggregate span per group round, folded or not, and the
// fel_async_* series a delay model registers but a sync run leaves idle —
// may not move, at either end of MaxParallel.
func TestSyncGroupRoundPinned(t *testing.T) {
	for _, par := range []int{1, 8} {
		cfg := testConfig()
		cfg.GlobalRounds = 5
		cfg.MaxParallel = par
		cfg.DropoutProb = 0.6
		cfg.Async.Delays = async.StragglerStorm()
		cfg.NewCompressor = func() compress.Compressor { return compress.NewTopK(16) }
		reg := metrics.New()
		cfg.Metrics = reg
		res := Train(testSystem(12, 0.5, 28), cfg)

		if res.LogicalTicks != 2088 || res.Dropouts != 55 || res.UplinkBytes != 6720 {
			t.Errorf("par=%d: ticks %d, dropouts %d, uplink %d; pinned 2088, 55, 6720",
				par, res.LogicalTicks, res.Dropouts, res.UplinkBytes)
		}
		if got := paramDigest(res.Params); got != "50c4b7c60f875c71" {
			t.Errorf("par=%d: parameter digest %s, pinned 50c4b7c60f875c71", par, got)
		}
		snap := metrics.MaskTimings(reg.Snapshot())
		for _, want := range []string{
			`fel_core_group_aggregate_seconds_count{edge="0"} 18`,
			`fel_core_group_aggregate_seconds_count{edge="1"} 12`,
			"fel_async_ticks_total 4172",
			"fel_async_round_ticks 540",
			"fel_async_flushes_total 0",
			"fel_async_folds_total 0",
			"fel_async_staleness_count 0",
			"fel_async_buffer_depth_count 0",
		} {
			if !strings.Contains(snap, want+"\n") {
				t.Errorf("par=%d: snapshot is missing %q", par, want)
			}
		}
		sum := sha256.Sum256([]byte(snap))
		if got := hex.EncodeToString(sum[:8]); got != "5c8acf2d84f3ffa0" {
			t.Errorf("par=%d: masked snapshot digest %s, pinned 5c8acf2d84f3ffa0:\n%s", par, got, snap)
		}
	}
}
