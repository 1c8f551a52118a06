package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// comparisonArms is every baseline of Sec. 7.3 on the given task: all
// methods hierarchical, uniform group sampling for the baselines, tuned to
// similar group sizes.
func comparisonArms(task Task, sc Scale) []namedArm {
	opts := baselines.DefaultOptions(sc.Clients, sc.TargetGS)
	opts.MinGS = sc.MinGS
	// No MaxCoV constraint for Group-FEL in the comparisons: Table 1 shows
	// that under strong skew the loosest MaxCoV wins (smallest groups,
	// lowest overhead, sampling skips the skewed ones).
	opts.MaxCoV = 0
	// OUEA and SHARE aggregate one group per edge server (uncapped sizes);
	// see baselines.Options.EdgeAggregatorSize.
	opts.EdgeAggregatorSize = (sc.Clients + sc.Edges - 1) / sc.Edges
	if task == SC {
		// Fig. 11 setup: the larger minimum group size applies to *every*
		// method ("We set MinGS = 15 for all"), no MaxCoV constraint.
		opts.MinGS = sc.MinGS * 3
		opts.TargetGS = opts.MinGS
	}
	var arms []namedArm
	for _, m := range baselines.All() {
		arms = append(arms, namedArm{string(m), arm{Method: m, Opts: opts}})
	}
	return arms
}

// comparisonAlpha is the Dirichlet skew of the Figs. 9–10 comparison — a
// skewed-but-not-extreme setting in the band Table 1 sweeps.
const comparisonAlpha = 0.05

// Fig9 regenerates Fig. 9: accuracy vs global round, all methods, CIFAR.
func Fig9(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "fig9", Title: "Accuracy vs round — CIFAR", XLabel: "global round", YLabel: "accuracy"}
	return runs.accuracy(f, byRound, sc, CIFAR, comparisonAlpha, seed, comparisonArms(CIFAR, sc)...)
}

// Fig10 regenerates Fig. 10: accuracy vs cost, all methods, CIFAR — Fig. 9's
// runs on the other axis.
func Fig10(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "fig10", Title: "Accuracy vs cost — CIFAR", XLabel: "cost", YLabel: "accuracy"}
	return runs.accuracy(f, byCost, sc, CIFAR, comparisonAlpha, seed, comparisonArms(CIFAR, sc)...)
}

// Fig11 regenerates Fig. 11: accuracy vs cost on the SpeechCommands
// stand-in at extreme skew (α = 0.01, larger MinGS, no MaxCoV).
func Fig11(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "fig11", Title: "Accuracy vs cost — SC (alpha=0.01)", XLabel: "cost", YLabel: "accuracy"}
	return runs.accuracy(f, byCost, sc, SC, 0.01, seed, comparisonArms(SC, sc)...)
}

// Fig12 regenerates Fig. 12: the grouping × sampling ablation — CoVG+RS,
// RG+CoVS, CoVG+CoVS, KLDG+RS, KLDG+CoVS on CIFAR. CoVG is the comparison's
// uncapped-MaxCoV formation, so CoVG+RS and CoVG+CoVS are Fig. 7's Random
// and ESRCoV runs.
func Fig12(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "fig12", Title: "Grouping x sampling ablation", XLabel: "cost", YLabel: "accuracy"}
	kldg := grouping.KLDGrouping{Config: grouping.Config{MinGS: sc.TargetGS, MergeLeftover: true}, TargetGS: sc.TargetGS}
	return runs.accuracy(f, byCost, sc, CIFAR, comparisonAlpha, seed,
		namedArm{"CoVG+RS", arm{Grouping: covg(sc.MinGS, 0), Sampling: sampling.Random}},
		namedArm{"RG+CoVS", arm{Grouping: rg(sc.TargetGS), Sampling: sampling.ESRCoV}},
		namedArm{"CoVG+CoVS", arm{Grouping: covg(sc.MinGS, 0), Sampling: sampling.ESRCoV}},
		namedArm{"KLDG+RS", arm{Grouping: kldg, Sampling: sampling.Random}},
		namedArm{"KLDG+CoVS", arm{Grouping: kldg, Sampling: sampling.ESRCoV}},
	)
}

// Table1 regenerates Table 1: Group-FEL's group size range/average, average
// group CoV, and final accuracy across α ∈ {0.1, 0.5, 1.0} ×
// MaxCoV ∈ {0.1, 0.5, 1.0}. The paper runs it under a fixed cost budget;
// of the scales only Paper() sets one (CostBudget), the others run every
// round.
func Table1(runs *Runs, sc Scale, seed uint64) *trace.Table {
	t := &trace.Table{
		ID:    "table1",
		Title: "Group-FEL performance by alpha and MaxCoV",
		Header: []string{
			"alpha", "MaxCoV", "GS [min,max]", "GS avg", "avg CoV", "accuracy",
		},
	}
	for _, alpha := range []float64{0.1, 0.5, 1.0} {
		for _, maxCoV := range []float64{0.1, 0.5, 1.0} {
			res := runs.result(sc, CIFAR, alpha, seed, arm{Grouping: covg(sc.MinGS, maxCoV), Sampling: sampling.ESRCoV})
			minGS, maxGS, sumGS, sumCoV := 1<<30, 0, 0, 0.0
			for _, g := range res.Groups {
				if g.Size() < minGS {
					minGS = g.Size()
				}
				if g.Size() > maxGS {
					maxGS = g.Size()
				}
				sumGS += g.Size()
				sumCoV += g.CoV()
			}
			n := float64(len(res.Groups))
			t.AddRow(
				fmt.Sprintf("%.1f", alpha),
				fmt.Sprintf("%.1f", maxCoV),
				fmt.Sprintf("[%d, %d]", minGS, maxGS),
				fmt.Sprintf("%.2f", float64(sumGS)/n),
				fmt.Sprintf("%.2f", sumCoV/n),
				fmt.Sprintf("%.2f%%", res.FinalAccuracy*100),
			)
		}
	}
	return t
}
