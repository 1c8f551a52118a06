package experiments

import (
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// AblationVariance compares the paper's CoV criterion against the raw
// variance criterion it argues is scale-susceptible (Sec. 5.1): identical
// pipeline, only the greedy score differs.
func AblationVariance(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "abl-variance", Title: "CoV vs variance grouping criterion", XLabel: "cost", YLabel: "accuracy"}
	return runs.accuracy(f, byCost, sc, CIFAR, 0.05, seed,
		namedArm{"CoVG", arm{Grouping: covg(sc.MinGS, sc.MaxCoV), Sampling: sampling.ESRCoV}},
		namedArm{"VarG", arm{Grouping: grouping.VarianceGrouping{Config: grouping.Config{MinGS: sc.MinGS, MergeLeftover: true}}, Sampling: sampling.ESRCoV}},
	)
}

// AblationAggregation compares the three aggregation weight schemes of
// Sec. 6.2 under prioritized (RCoV) sampling: biased, raw unbiased (Eq. 4),
// and stabilized (Eq. 35).
func AblationAggregation(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "abl-aggregation", Title: "Aggregation weight schemes", XLabel: "global round", YLabel: "accuracy"}
	var arms []namedArm
	for _, w := range []sampling.WeightScheme{sampling.Biased, sampling.Unbiased, sampling.Stabilized} {
		arms = append(arms, namedArm{w.String(), arm{Grouping: covg(sc.MinGS, sc.MaxCoV), Sampling: sampling.RCoV, Weights: w}})
	}
	return runs.accuracy(f, byRound, sc, CIFAR, 0.3, seed, arms...)
}

// AblationRegroup compares never regrouping against periodic regrouping
// (Sec. 6.1's suggestion for reusing the data stranded in high-CoV groups;
// enabled by the random first pick in Alg. 2). Its static arm is
// abl-variance's CoVG run.
func AblationRegroup(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "abl-regroup", Title: "Periodic regrouping", XLabel: "cost", YLabel: "accuracy"}
	return runs.accuracy(f, byCost, sc, CIFAR, 0.05, seed,
		namedArm{"static groups", arm{Grouping: covg(sc.MinGS, sc.MaxCoV), Sampling: sampling.ESRCoV}},
		namedArm{"regroup every 5", arm{Grouping: covg(sc.MinGS, sc.MaxCoV), Sampling: sampling.ESRCoV, RegroupEvery: 5}},
	)
}
