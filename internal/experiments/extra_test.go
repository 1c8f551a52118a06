package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grouping"
	"repro/internal/sampling"
)

func TestTheoryFigureCoVGTighter(t *testing.T) {
	f := TheoryFigure(Small(), testSeed)
	rg, covg := f.Get("RG+Random"), f.Get("CoVG+Random")
	if rg == nil || covg == nil {
		t.Fatal("missing series")
	}
	// At every T the CoVG structure yields a bound no worse than RG's
	// (lower ζ_g proxy, similar γ/Γ).
	for i := 0; i < covg.Len(); i++ {
		if covg.Y[i] > rg.Y[i]*1.05 {
			t.Fatalf("T=%v: CoVG bound %v worse than RG %v", covg.X[i], covg.Y[i], rg.Y[i])
		}
	}
	// The bound shrinks with T for both.
	for _, s := range f.Series {
		for i := 1; i < s.Len(); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Fatalf("%s bound not decreasing in T", s.Name)
			}
		}
	}
}

func TestCostBreakdownShareGrows(t *testing.T) {
	tb := CostBreakdown(Small(), testSeed)
	if len(tb.Rows) < 3 {
		t.Fatalf("only %d rows", len(tb.Rows))
	}
	prev := -1.0
	for _, row := range tb.Rows {
		share, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if share <= prev {
			t.Fatalf("group-op share not increasing with group size: %v after %v", share, prev)
		}
		prev = share
	}
}

func TestDropoutRobustnessShape(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 8
	f := DropoutRobustness(nil, sc, testSeed)
	acc := f.Get("Group-FEL")
	drops := f.Get("dropped updates")
	if acc == nil || drops == nil {
		t.Fatal("missing series")
	}
	// No dropouts at p=0; dropouts increase with p.
	if drops.Y[0] != 0 {
		t.Fatalf("dropouts at p=0: %v", drops.Y[0])
	}
	if drops.FinalY() <= drops.Y[1] {
		t.Fatalf("dropout count not increasing: %v", drops.Y)
	}
	// Accuracy at moderate dropout stays above chance (robustness).
	for i := range acc.Y {
		if acc.Y[i] < 0.15 {
			t.Fatalf("accuracy collapsed at p=%v: %v", acc.X[i], acc.Y[i])
		}
	}
}

func TestExtraExperimentsRegistered(t *testing.T) {
	reg := Registry(nil)
	for _, id := range []string{"theory", "costbreak", "dropout"} {
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
}

func TestFairnessTableShape(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 10
	tb := FairnessTable(nil, sc, testSeed)
	if len(tb.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(tb.Rows))
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscan(s, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	random := parse(tb.Rows[0][1])
	esr := parse(tb.Rows[2][1])
	esrRegroup := parse(tb.Rows[3][1])
	if random < esr {
		t.Fatalf("Random Jain %v should be >= ESRCoV %v", random, esr)
	}
	// Regrouping mitigates the concentration (allows equality: small runs
	// can tie).
	if esrRegroup < esr-0.05 {
		t.Fatalf("regrouping made fairness clearly worse: %v vs %v", esrRegroup, esr)
	}
}

func TestConvModelScalePath(t *testing.T) {
	// The Paper scale's convolutional branch, shrunk to one round: builds
	// the ResNet/CNN systems and runs a round end to end.
	if testing.Short() {
		t.Skip("conv models are slow")
	}
	sc := Paper()
	sc.Clients, sc.Edges = 12, 2
	sc.GlobalRounds, sc.GroupRounds, sc.LocalEpochs = 1, 1, 1
	sc.SampleGroups, sc.TestSize = 2, 100
	sc.MinSamples, sc.MaxSamples, sc.MeanSamples, sc.StdSamples = 8, 20, 12, 4
	sc.CostBudget = 0
	for _, task := range []Task{CIFAR, SC} {
		sys := sc.NewSystem(task, 0.5, testSeed)
		cfg := sc.BaseConfig(task, testSeed)
		cfg.Grouping = grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MergeLeftover: true}}
		cfg.Sampling = sampling.ESRCoV
		res := core.Train(sys, cfg)
		if res.RoundsRun != 1 || len(res.Params) == 0 {
			t.Fatalf("%v conv path failed: %+v", task, res.RoundsRun)
		}
	}
}

// TestAsyncVsSyncGates pins the async-vs-sync table at the CI scale: the
// structural gates (α=0 full-buffer ≡ sync bit for bit, both async modes
// strictly fewer logical ticks, best async accuracy ≥ sync) and the exact
// seed-deterministic tick counts README and DESIGN.md quote.
func TestAsyncVsSyncGates(t *testing.T) {
	runs := asyncVsSyncRuns(Small(), testSeed)
	tab := asyncTable(runs)
	ticksCol := slices.Index(tab.Header, "logical_ticks")
	byName := map[string]asyncRun{}
	for i, want := range []struct{ name, ticks string }{
		{"sync", "8380"}, {"buffered", "7616"}, {"semisync", "1800"},
		{"buffered-alpha0-full", "8380"},
	} {
		if row := tab.Rows[i]; row[0] != want.name || row[ticksCol] != want.ticks {
			t.Errorf("row %d: %s with %s logical ticks, want %s with %s",
				i, row[0], row[ticksCol], want.name, want.ticks)
		}
		byName[runs[i].name] = runs[i]
	}

	ref, probe := byName["sync"].res, byName["buffered-alpha0-full"].res
	if len(probe.Params) == 0 || len(probe.Params) != len(ref.Params) {
		t.Fatalf("alpha=0 probe has %d params, sync %d", len(probe.Params), len(ref.Params))
	}
	for i := range ref.Params {
		if math.Float64bits(probe.Params[i]) != math.Float64bits(ref.Params[i]) {
			t.Fatalf("alpha=0 full-buffer param %d differs from sync: %.17g vs %.17g",
				i, probe.Params[i], ref.Params[i])
		}
	}
	buffered, semi := byName["buffered"].res, byName["semisync"].res
	if buffered.LogicalTicks >= ref.LogicalTicks || semi.LogicalTicks >= ref.LogicalTicks {
		t.Errorf("buffered %d / semisync %d ticks, want both strictly fewer than sync's %d",
			buffered.LogicalTicks, semi.LogicalTicks, ref.LogicalTicks)
	}
	if best := max(buffered.FinalAccuracy, semi.FinalAccuracy); best < ref.FinalAccuracy {
		t.Errorf("best async accuracy %.4f below sync %.4f", best, ref.FinalAccuracy)
	}
}
