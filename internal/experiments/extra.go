package experiments

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/trace"
)

// TheoryFigure evaluates the Theorem 1 bound against the round count for
// the group structures produced by RG and CoVG on the same population —
// the executable form of the paper's claim that lower group heterogeneity
// (ζ_g) tightens the convergence bound.
func TheoryFigure(sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "theory", Title: "Theorem 1 bound by grouping", XLabel: "global rounds T", YLabel: "bound on avg grad norm^2"}
	clients := syntheticClients(sc.Clients, 10, 0.2, seed)
	base := theory.Params{
		Eta: 0.01, K: sc.GroupRounds, E: sc.LocalEpochs,
		L: 1, Sigma2: 1, Zeta2: 1, F0MinusFStar: 10, S: sc.SampleGroups,
	}
	algs := []struct {
		name string
		alg  grouping.Algorithm
		m    sampling.Method
	}{
		{"RG+Random", rg(sc.TargetGS), sampling.Random},
		{"CoVG+Random", covg(sc.MinGS, sc.MaxCoV), sampling.Random},
	}
	for _, a := range algs {
		groups := a.alg.Form(clients, 10, 0, 0, stats.NewRNG(seed))
		p := sampling.Probabilities(groups, a.m)
		params := theory.FromSystem(groups, p, base)
		s := f.AddSeries(a.name)
		for _, T := range []int{50, 100, 200, 400, 800} {
			params.T = T
			s.Add(float64(T), theory.Bound(params))
		}
	}
	return f
}

// CostBreakdown tabulates how total spend splits between training and
// group operations as the group size grows — the quantitative version of
// the paper's Fig. 2 motivation that overheads dominate for large groups.
func CostBreakdown(sc Scale, seed uint64) *trace.Table {
	t := &trace.Table{
		ID:     "costbreak",
		Title:  "Cost breakdown by group size (one global round, CIFAR profile)",
		Header: []string{"group size", "training", "group ops", "group-op share"},
	}
	profile := cost.CIFARProfile()
	clients := syntheticClients(sc.Clients, 10, 0.3, seed)
	for _, gs := range []int{5, 10, 20, 40} {
		if gs > len(clients) {
			break
		}
		acct := cost.NewAccountant(profile, cost.DefaultOps())
		samples := make([]int, gs)
		for i := 0; i < gs; i++ {
			samples[i] = clients[i].NumSamples()
		}
		acct.GroupRound(gs, samples, sc.LocalEpochs)
		share := acct.GroupOps() / acct.Total()
		t.AddRow(
			fmt.Sprintf("%d", gs),
			fmt.Sprintf("%.1f", acct.Training()),
			fmt.Sprintf("%.1f", acct.GroupOps()),
			fmt.Sprintf("%.0f%%", share*100),
		)
	}
	return t
}

// DropoutRobustness sweeps the client dropout probability and reports
// Group-FEL's final accuracy — the robustness property the secure
// aggregation substrate's dropout recovery buys.
func DropoutRobustness(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "dropout", Title: "Robustness to client dropout", XLabel: "dropout probability", YLabel: "final accuracy"}
	s := f.AddSeries("Group-FEL")
	d := f.AddSeries("dropped updates")
	for _, p := range []float64{0, 0.1, 0.2, 0.4} {
		res := runs.result(sc, CIFAR, 0.3, seed, arm{Grouping: covg(sc.MinGS, sc.MaxCoV), Sampling: sampling.ESRCoV, DropoutProb: p})
		s.Add(p, res.FinalAccuracy)
		d.Add(p, float64(res.Dropouts))
	}
	return f
}

// FairnessTable measures the participation-fairness cost of prioritized
// sampling (the paper's future-work concern): for each sampling method it
// reports Jain's index over client participation counts, the fraction of
// clients that ever trained, and the final accuracy. Periodic regrouping
// (Sec. 6.1) is included as the paper's suggested mitigation.
func FairnessTable(runs *Runs, sc Scale, seed uint64) *trace.Table {
	t := &trace.Table{
		ID:     "fairness",
		Title:  "Participation fairness by sampling method",
		Header: []string{"method", "Jain index", "clients trained", "accuracy"},
	}
	type variant struct {
		name    string
		m       sampling.Method
		regroup int
	}
	// Every run trains on its own copy of this population; Jain's index is
	// taken over its clients, trained or not.
	sys := sc.NewSystem(CIFAR, 0.2, seed)
	for _, v := range []variant{
		{"Random", sampling.Random, 0},
		{"RCoV", sampling.RCoV, 0},
		{"ESRCoV", sampling.ESRCoV, 0},
		{"ESRCoV+regroup", sampling.ESRCoV, 5},
	} {
		res := runs.result(sc, CIFAR, 0.2, seed, arm{Grouping: covg(sc.MinGS, sc.MaxCoV), Sampling: v.m, RegroupEvery: v.regroup})
		t.AddRow(
			v.name,
			fmt.Sprintf("%.3f", res.FairnessIndex(sys)),
			fmt.Sprintf("%d/%d", res.UniqueParticipants(), len(sys.Clients)),
			fmt.Sprintf("%.2f%%", res.FinalAccuracy*100),
		)
	}
	return t
}
