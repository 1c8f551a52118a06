package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/trace"
)

const testSeed = 2024

func TestFig2aShapes(t *testing.T) {
	f := Fig2a()
	sa := f.Get("Secure Aggregation")
	tr := f.Get("Training")
	if sa == nil || tr == nil {
		t.Fatal("missing series")
	}
	// SecAgg quadratic: beyond the crossover it exceeds linear training.
	if sa.FinalY() <= tr.FinalY()*0.8 {
		t.Fatalf("at size 50 SecAgg (%v) should rival training (%v)", sa.FinalY(), tr.FinalY())
	}
	// Monotone increasing curves.
	for _, s := range f.Series {
		for i := 1; i < s.Len(); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s not monotone", s.Name)
			}
		}
	}
}

func TestFig2bRuns(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 6
	f := Fig2b(nil, sc, testSeed)
	if len(f.Series) != 4 {
		t.Fatalf("want 4 group-size series, got %d", len(f.Series))
	}
	// Larger groups accumulate cost faster per round.
	gs5, gs20 := f.Get("GS=5"), f.Get("GS=20")
	if gs5.X[gs5.Len()-1] >= gs20.X[gs20.Len()-1] {
		t.Fatalf("GS=20 total cost (%v) should exceed GS=5 (%v)", gs20.X[gs20.Len()-1], gs5.X[gs5.Len()-1])
	}
}

func TestFig5RuntimeOrdering(t *testing.T) {
	// Fig5 times each formation once; a single wall-clock sample is at the
	// mercy of whatever else `go test ./...` is running, so the assertions
	// use the minimum over three runs at the largest size.
	best := map[string]float64{}
	for run := 0; run < 3; run++ {
		f := Fig5(Small(), testSeed)
		for _, name := range []string{"RG", "CoVG", "KLDG"} {
			s := f.Get(name)
			if s == nil {
				t.Fatalf("missing series %s", name)
			}
			if y, seen := best[name]; !seen || s.FinalY() < y {
				best[name] = s.FinalY()
			}
		}
	}
	rg, cov, kld := best["RG"], best["CoVG"], best["KLDG"]
	// At the largest size: RG fastest, KLDG slowest (paper Fig. 5).
	if !(rg <= cov && cov <= kld) {
		t.Fatalf("runtime ordering violated: RG %v, CoVG %v, KLDG %v", rg, cov, kld)
	}
	// KLDG should be clearly slower than CoVG, not marginally.
	if kld < 2*cov {
		t.Fatalf("KLDG (%v) should be well above CoVG (%v)", kld, cov)
	}
}

func TestFig6CoVGBest(t *testing.T) {
	f := Fig6(Small(), testSeed)
	cov, rg := f.Get("CoVG"), f.Get("RG")
	if cov == nil || rg == nil {
		t.Fatal("missing series")
	}
	// CoVG's average CoV (x values) should be below RG's at every sweep
	// point (same group-size sweep, better distribution).
	for i := 0; i < cov.Len() && i < rg.Len(); i++ {
		if cov.X[i] > rg.X[i] {
			t.Fatalf("sweep %d: CoVG CoV %v worse than RG %v", i, cov.X[i], rg.X[i])
		}
	}
}

func TestFig7SamplingOrdering(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 12
	f := Fig7(nil, sc, testSeed)
	if len(f.Series) != 4 {
		t.Fatalf("want 4 sampling series, got %d", len(f.Series))
	}
	// ESRCoV should be at least competitive with Random at the shared cost
	// horizon (paper: strictly better; at CI scale we assert no regression).
	esr, rnd := f.Get("ESRCoV"), f.Get("Random")
	horizon := minFinalX(f)
	if esr.YAtX(horizon) < rnd.YAtX(horizon)-0.08 {
		t.Fatalf("ESRCoV %.3f clearly below Random %.3f at cost %.0f",
			esr.YAtX(horizon), rnd.YAtX(horizon), horizon)
	}
}

func TestFig8MeasuredMatchesModelShape(t *testing.T) {
	f := Fig8()
	meas := f.Get("SecAgg (measured ops, scaled)")
	model := f.Get("CIFAR SecAgg")
	if meas == nil || model == nil {
		t.Fatal("missing series")
	}
	// Measured ops, scaled to anchor at n=20, should track the quadratic
	// model within 40% at n=40.
	at40meas := meas.YAtX(40)
	at40model := model.YAtX(40)
	if at40meas < at40model*0.6 || at40meas > at40model*1.4 {
		t.Fatalf("measured %.2f vs model %.2f at n=40: shapes diverge", at40meas, at40model)
	}
	// SCAFFOLD SecAgg dominates plain SecAgg everywhere.
	sc, sa := f.Get("CIFAR SCAFFOLD SecAgg"), f.Get("CIFAR SecAgg")
	for i := 0; i < sc.Len(); i++ {
		if sc.Y[i] <= sa.Y[i] {
			t.Fatalf("SCAFFOLD SecAgg not dominating at point %d", i)
		}
	}
}

func TestComparisonFig9Fig10(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 12
	runs := NewRuns()
	f9, f10 := Fig9(runs, sc, testSeed), Fig10(runs, sc, testSeed)
	if len(f9.Series) != 7 || len(f10.Series) != 7 {
		t.Fatalf("want 7 methods, got %d / %d", len(f9.Series), len(f10.Series))
	}
	gf := f10.Get(string(baselines.GroupFEL))
	// Group-FEL must be within noise of the best baseline at the shared
	// cost horizon, and clearly above the worst (paper: strictly best).
	horizon := minFinalX(f10)
	best, worst := -1.0, 2.0
	for _, s := range f10.Series {
		if s == gf {
			continue
		}
		y := s.YAtX(horizon)
		if y > best {
			best = y
		}
		if y < worst {
			worst = y
		}
	}
	got := gf.YAtX(horizon)
	if got < best-0.1 {
		t.Fatalf("Group-FEL %.3f clearly below best baseline %.3f at cost %.0f", got, best, horizon)
	}
	// SCAFFOLD pays double SecAgg: its cost per round must exceed FedAvg's.
	scf, fa := f10.Get(string(baselines.Scaffold)), f10.Get(string(baselines.FedAvg))
	if scf.X[0] <= fa.X[0] {
		t.Fatalf("SCAFFOLD first-round cost %v should exceed FedAvg %v", scf.X[0], fa.X[0])
	}
}

func TestFig11Runs(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 8
	f := Fig11(nil, sc, testSeed)
	if len(f.Series) != 7 {
		t.Fatalf("want 7 methods, got %d", len(f.Series))
	}
	for _, s := range f.Series {
		if s.Len() == 0 {
			t.Fatalf("series %s empty", s.Name)
		}
	}
}

func TestFig12ComboOrdering(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 12
	f := Fig12(nil, sc, testSeed)
	if len(f.Series) != 5 {
		t.Fatalf("want 5 combos, got %d", len(f.Series))
	}
	both := f.Get("CoVG+CoVS")
	horizon := minFinalX(f)
	// The combined method should not lose clearly to any single-component
	// combo (paper: it wins).
	for _, s := range f.Series {
		if s == both {
			continue
		}
		if both.YAtX(horizon) < s.YAtX(horizon)-0.12 {
			t.Fatalf("CoVG+CoVS %.3f clearly below %s %.3f", both.YAtX(horizon), s.Name, s.YAtX(horizon))
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 8
	tb := Table1(nil, sc, testSeed)
	if len(tb.Rows) != 9 {
		t.Fatalf("want 9 rows (3 alpha x 3 MaxCoV), got %d", len(tb.Rows))
	}
	// Parse avg GS and avg CoV columns; per alpha block, MaxCoV=1.0 must
	// not produce larger groups than MaxCoV=0.1.
	var gs [9]float64
	var cov [9]float64
	for i, row := range tb.Rows {
		if _, err := sscan(row[3], &gs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[4], &cov[i]); err != nil {
			t.Fatal(err)
		}
	}
	for block := 0; block < 3; block++ {
		strict, loose := block*3, block*3+2 // MaxCoV 0.1 vs 1.0
		if gs[loose] > gs[strict]+1e-9 {
			t.Errorf("block %d: loose MaxCoV gave larger groups (%.2f > %.2f)", block, gs[loose], gs[strict])
		}
		if cov[loose]+1e-9 < cov[strict] {
			t.Errorf("block %d: loose MaxCoV gave smaller CoV (%.2f < %.2f)", block, cov[loose], cov[strict])
		}
	}
}

func TestAblationsRun(t *testing.T) {
	sc := Small()
	sc.GlobalRounds = 6
	for name, fn := range map[string]func(*Runs, Scale, uint64) *trace.Figure{
		"variance":    AblationVariance,
		"aggregation": AblationAggregation,
		"regroup":     AblationRegroup,
	} {
		f := fn(nil, sc, testSeed)
		if len(f.Series) < 2 {
			t.Errorf("%s: want >= 2 series", name)
		}
		for _, s := range f.Series {
			if s.Len() == 0 {
				t.Errorf("%s: series %s empty", name, s.Name)
			}
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry(nil)
	want := []string{"fig2a", "fig2b", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "table1",
		"abl-variance", "abl-aggregation", "abl-regroup",
		"theory", "dropout", "costbreak", "fairness"}
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
	ids := IDs()
	if len(ids) != len(reg) || len(ids) != len(want) {
		t.Fatalf("IDs() has %d ids, registry %d, this test names %d", len(ids), len(reg), len(want))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestRegistryRunnersProduceOutput(t *testing.T) {
	// Smoke-run the cheap runners through the registry interface.
	sc := Small()
	sc.GlobalRounds = 3
	reg := Registry(nil)
	for _, id := range []string{"fig2a", "fig8"} {
		a := reg[id](sc, testSeed)
		if !strings.Contains(a.CSV, id) || a.Pretty == "" {
			t.Errorf("%s: bad artifact", id)
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%s) = %+v, %v", name, sc.Name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("expected error for unknown scale")
	}
}

func TestTaskMetadata(t *testing.T) {
	if CIFAR.String() != "CIFAR" || SC.String() != "SC" {
		t.Fatal("task names wrong")
	}
	if CIFAR.Profile().Name != "CIFAR" || SC.Profile().Name != "SC" {
		t.Fatal("task profiles wrong")
	}
}

// minFinalX returns the smallest final x across series — the shared cost
// horizon for fair at-cost comparisons.
func minFinalX(f *trace.Figure) float64 {
	m := -1.0
	for _, s := range f.Series {
		if s.Len() == 0 {
			continue
		}
		x := s.X[s.Len()-1]
		if m < 0 || x < m {
			m = x
		}
	}
	return m
}

// sscan parses a float from a string.
func sscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}
