package experiments

import (
	"fmt"
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
