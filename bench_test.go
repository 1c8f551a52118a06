// Benchmarks regenerating every table and figure of the paper's evaluation
// at the Small scale, plus ablation benches for the design choices called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each Benchmark* reports the headline metric of its artifact via
// b.ReportMetric so the shape comparison against the paper is visible in
// bench output (see EXPERIMENTS.md for the recorded values).
package groupfel_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/trace"
)

const benchSeed = 7331

func benchScale() experiments.Scale {
	sc := experiments.Small()
	sc.GlobalRounds = 10
	return sc
}

// finalAccuracy reports each series' last accuracy as a bench metric.
func reportFinals(b *testing.B, f *trace.Figure) {
	b.Helper()
	for _, s := range f.Series {
		b.ReportMetric(s.FinalY(), "final_acc_"+sanitizeMetric(s.Name))
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkTrainSmall times the training engine end to end at the Small
// scale: "serial" pins MaxParallel=1 (the reference schedule), "parallel"
// uses GOMAXPROCS workers. Both schedules produce bit-identical parameters
// (see core's replay tests); the interesting delta here is ns/op and
// allocs/op. The judged version of this comparison is `go run ./bench`
// workload train-gemm (rounds_per_s, parallel_speedup).
func BenchmarkTrainSmall(b *testing.B) {
	for _, mode := range []struct {
		name        string
		maxParallel int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sc := benchScale()
			sys := sc.NewSystem(experiments.CIFAR, 0.2, benchSeed)
			cfg := sc.BaseConfig(experiments.CIFAR, benchSeed)
			cfg.Grouping = grouping.CoVGrouping{Config: grouping.Config{MinGS: sc.MinGS, MaxCoV: sc.MaxCoV, MergeLeftover: true}}
			cfg.Sampling = sampling.ESRCoV
			cfg.Weights = sampling.Biased
			cfg.MaxParallel = mode.maxParallel
			cfg.EvalEvery = cfg.GlobalRounds // time training, not evaluation
			b.ReportAllocs()
			b.ResetTimer()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Train(sys, cfg)
			}
			b.ReportMetric(res.FinalAccuracy, "final_acc")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

// BenchmarkFig2a regenerates Fig. 2(a): group overheads vs size.
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig2a()
		if i == b.N-1 {
			b.ReportMetric(f.Get("Secure Aggregation").FinalY(), "secagg_s_at_50")
			b.ReportMetric(f.Get("Training").FinalY(), "training_s_at_50")
		}
	}
}

// BenchmarkFig2b regenerates Fig. 2(b): accuracy over cost per group size.
func BenchmarkFig2b(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.Fig2b(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkGroupingRG/CDG/KLDG/CoVG regenerate Fig. 5's per-algorithm
// running time directly as Go benchmarks over a 200-client population.
func benchGrouping(b *testing.B, alg grouping.Algorithm) {
	gen := data.NewGenerator(data.FlatConfig(10, 4, benchSeed))
	ds := gen.Sample(200*60, 0)
	clients := data.DirichletPartition(ds, data.PartitionConfig{
		NumClients: 200, Alpha: 0.3,
		MinSamples: 10, MaxSamples: 50, MeanSamples: 30, StdSamples: 10,
		Seed: benchSeed,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Form(clients, 10, 0, 0, stats.NewRNG(uint64(i)))
	}
}

// BenchmarkGroupingRG times random grouping (Fig. 5).
func BenchmarkGroupingRG(b *testing.B) {
	benchGrouping(b, grouping.RandomGrouping{Config: grouping.Config{MinGS: 5}, TargetGS: 5})
}

// BenchmarkGroupingCDG times OUEA's cluster-then-distribute (Fig. 5).
func BenchmarkGroupingCDG(b *testing.B) {
	benchGrouping(b, grouping.CDGrouping{Config: grouping.Config{MinGS: 5}, TargetGS: 5})
}

// BenchmarkGroupingKLDG times SHARE's KLD grouping (Fig. 5).
func BenchmarkGroupingKLDG(b *testing.B) {
	benchGrouping(b, grouping.KLDGrouping{Config: grouping.Config{MinGS: 5, MergeLeftover: true}, TargetGS: 5})
}

// BenchmarkGroupingCoVG times the paper's Algorithm 2 (Fig. 5).
func BenchmarkGroupingCoVG(b *testing.B) {
	benchGrouping(b, grouping.CoVGrouping{Config: grouping.Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}})
}

// BenchmarkFig6 regenerates Fig. 6: CoV vs group overhead per algorithm.
func BenchmarkFig6(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.Fig6(sc, benchSeed)
		if i == b.N-1 {
			for _, s := range f.Series {
				if s.Len() > 0 {
					b.ReportMetric(s.X[0], "cov_at_gs5_"+sanitizeMetric(s.Name))
				}
			}
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7: the four sampling methods.
func BenchmarkFig7(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.Fig7(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8: overhead model + measured op counts.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig8()
		if i == b.N-1 {
			b.ReportMetric(f.Get("SecAgg (measured ops, scaled)").FinalY(), "measured_secagg_s_at_40")
			b.ReportMetric(f.Get("CIFAR SecAgg").YAtX(40), "model_secagg_s_at_40")
		}
	}
}

// BenchmarkFig9 regenerates Fig. 9: all methods, accuracy vs round, CIFAR.
func BenchmarkFig9(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.Fig9(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkFig10 regenerates Fig. 10: all methods, accuracy vs cost, CIFAR.
func BenchmarkFig10(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.Fig10(sc, benchSeed)
		if i == b.N-1 {
			// Report accuracy at the shared cost horizon (the smallest
			// final cost across methods) — the paper's headline comparison.
			horizon := 0.0
			for _, s := range f.Series {
				if x := s.X[len(s.X)-1]; horizon == 0 || x < horizon {
					horizon = x
				}
			}
			for _, s := range f.Series {
				b.ReportMetric(s.YAtX(horizon), "acc_at_budget_"+sanitizeMetric(s.Name))
			}
		}
	}
}

// BenchmarkFig11 regenerates Fig. 11: accuracy vs cost, SC, extreme skew.
func BenchmarkFig11(b *testing.B) {
	sc := benchScale()
	sc.GlobalRounds = 8
	for i := 0; i < b.N; i++ {
		f := experiments.Fig11(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkFig12 regenerates Fig. 12: grouping × sampling ablation.
func BenchmarkFig12(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.Fig12(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkTable1 regenerates Table 1: α × MaxCoV sweep.
func BenchmarkTable1(b *testing.B) {
	sc := benchScale()
	sc.GlobalRounds = 6
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(sc, benchSeed)
		if i == b.N-1 {
			b.ReportMetric(float64(len(t.Rows)), "rows")
		}
	}
}

// BenchmarkAblationVarianceCriterion compares CoV vs raw-variance grouping
// (DESIGN.md ablation 1).
func BenchmarkAblationVarianceCriterion(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.AblationVariance(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkAblationAggregation compares biased/unbiased/stabilized weights
// (DESIGN.md ablation 2).
func BenchmarkAblationAggregation(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.AblationAggregation(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkAblationRegroup compares static vs periodic regrouping
// (DESIGN.md ablation 3).
func BenchmarkAblationRegroup(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.AblationRegroup(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkAblationGamma compares plain vs γ-aware formation (DESIGN.md
// ablation 4, the paper's future work).
func BenchmarkAblationGamma(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.AblationGamma(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkTheoryBound regenerates the Theorem 1 bound comparison (extra
// experiment "theory").
func BenchmarkTheoryBound(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f := experiments.TheoryFigure(sc, benchSeed)
		if i == b.N-1 {
			for _, s := range f.Series {
				b.ReportMetric(s.FinalY(), "bound_T800_"+sanitizeMetric(s.Name))
			}
		}
	}
}

// BenchmarkCostBreakdown regenerates the training/group-op split table.
func BenchmarkCostBreakdown(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		t := experiments.CostBreakdown(sc, benchSeed)
		if i == b.N-1 {
			b.ReportMetric(float64(len(t.Rows)), "rows")
		}
	}
}

// BenchmarkDropoutRobustness regenerates the client-dropout sweep.
func BenchmarkDropoutRobustness(b *testing.B) {
	sc := benchScale()
	sc.GlobalRounds = 6
	for i := 0; i < b.N; i++ {
		f := experiments.DropoutRobustness(sc, benchSeed)
		if i == b.N-1 {
			reportFinals(b, f)
		}
	}
}

// BenchmarkFairness regenerates the participation-fairness table (extra
// experiment "fairness").
func BenchmarkFairness(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		t := experiments.FairnessTable(sc, benchSeed)
		if i == b.N-1 {
			b.ReportMetric(float64(len(t.Rows)), "rows")
		}
	}
}

// BenchmarkCompression regenerates the accuracy-vs-uplink-bytes comparison
// (extra experiment "compression").
func BenchmarkCompression(b *testing.B) {
	sc := benchScale()
	sc.GlobalRounds = 6
	for i := 0; i < b.N; i++ {
		t := experiments.CompressionTable(sc, benchSeed)
		if i == b.N-1 {
			b.ReportMetric(float64(len(t.Rows)), "rows")
		}
	}
}

// BenchmarkMultiModel regenerates the multi-model scheduler comparison
// (extra experiment "multimodel", the paper's reference [23] scenario).
func BenchmarkMultiModel(b *testing.B) {
	sc := benchScale()
	sc.GlobalRounds = 6
	for i := 0; i < b.N; i++ {
		t := experiments.MultiModelTable(sc, benchSeed)
		if i == b.N-1 {
			b.ReportMetric(float64(len(t.Rows)), "rows")
		}
	}
}
