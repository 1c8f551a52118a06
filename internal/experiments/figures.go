package experiments

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/secagg"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig2a regenerates Fig. 2(a): per-client group overheads vs group size and
// training cost vs data count, 0–50, from the CIFAR cost profile.
func Fig2a() *trace.Figure {
	p := cost.CIFARProfile()
	f := &trace.Figure{ID: "fig2a", Title: "Group overheads", XLabel: "data/group size", YLabel: "time (s)"}
	tr := f.AddSeries("Training")
	sa := f.AddSeries("Secure Aggregation")
	bd := f.AddSeries("Backdoor Detection")
	for x := 0; x <= 50; x += 5 {
		tr.Add(float64(x), p.Training(x))
		sa.Add(float64(x), p.SecAgg(x))
		bd.Add(float64(x), p.Backdoor(x))
	}
	return f
}

// Fig2b regenerates Fig. 2(b): accuracy over cost for fixed group sizes
// GS ∈ {5, 10, 15, 20} under random grouping and uniform sampling — the
// motivating observation that shrinking groups alone does not cut total
// cost, because smaller random groups are more skewed.
func Fig2b(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "fig2b", Title: "Accuracy over cost by group size", XLabel: "cost", YLabel: "accuracy"}
	var arms []namedArm
	for _, gs := range []int{5, 10, 15, 20} {
		arms = append(arms, namedArm{fmt.Sprintf("GS=%d", gs), arm{Grouping: rg(gs), Sampling: sampling.Random}})
	}
	return runs.accuracy(f, byCost, sc, CIFAR, 0.02, seed, arms...)
}

// Fig5 regenerates Fig. 5: wall-clock running time of the four grouping
// algorithms as the client count grows.
func Fig5(sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "fig5", Title: "Grouping running time", XLabel: "number of clients", YLabel: "time (s)"}
	sizes := []int{200, 400, 600, 800, 1000}
	if sc.Name == "small" {
		sizes = []int{50, 100, 150, 200}
	}
	algs := []grouping.Algorithm{
		rg(sc.TargetGS),
		grouping.CDGrouping{Config: grouping.Config{MinGS: sc.TargetGS}, TargetGS: sc.TargetGS},
		grouping.KLDGrouping{Config: grouping.Config{MinGS: sc.TargetGS, MergeLeftover: true}, TargetGS: sc.TargetGS},
		covg(sc.TargetGS, sc.MaxCoV),
	}
	series := make([]*trace.Series, len(algs))
	for i, a := range algs {
		series[i] = f.AddSeries(a.Name())
	}
	for _, n := range sizes {
		clients := syntheticClients(n, 10, 0.3, seed)
		for i, a := range algs {
			start := clock.Real.Now()
			a.Form(clients, 10, 0, 0, stats.NewRNG(seed+uint64(i)))
			series[i].Add(float64(n), clock.Real.Now().Sub(start).Seconds())
		}
	}
	return f
}

// Fig6 regenerates Fig. 6: average group CoV (x) versus average per-client
// group overhead (y, normalized to the largest configuration) as the target
// group size sweeps — showing CoVG gives the best CoV at equal overhead.
func Fig6(sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "fig6", Title: "CoV vs group overhead", XLabel: "avg CoV", YLabel: "avg group overhead (normalized)"}
	profile := cost.CIFARProfile()
	ops := cost.DefaultOps()
	sizes := []int{5, 8, 12, 16, 20}
	maxOverhead := profile.GroupOverhead(sizes[len(sizes)-1], ops)
	clients := syntheticClients(sc.Clients*3, 10, 0.2, seed)
	build := func(gs int) []grouping.Algorithm {
		return []grouping.Algorithm{
			rg(gs),
			grouping.CDGrouping{Config: grouping.Config{MinGS: gs}, TargetGS: gs},
			grouping.KLDGrouping{Config: grouping.Config{MinGS: gs, MergeLeftover: true}, TargetGS: gs},
			covg(gs, 0),
		}
	}
	names := []string{"RG", "CDG", "KLDG", "CoVG"}
	series := make(map[string]*trace.Series, len(names))
	for _, n := range names {
		series[n] = f.AddSeries(n)
	}
	for _, gs := range sizes {
		for i, a := range build(gs) {
			groups := a.Form(clients, 10, 0, 0, stats.NewRNG(seed+uint64(gs)))
			covSum, ovSum := 0.0, 0.0
			for _, g := range groups {
				covSum += g.CoV()
				ovSum += profile.GroupOverhead(g.Size(), ops)
			}
			n := float64(len(groups))
			series[names[i]].Add(covSum/n, ovSum/n/maxOverhead)
		}
	}
	return f
}

// Fig7 regenerates Fig. 7: accuracy over cost for the four sampling methods
// (Random, RCoV, SRCoV, ESRCoV) with CoVG formation held fixed.
func Fig7(runs *Runs, sc Scale, seed uint64) *trace.Figure {
	f := &trace.Figure{ID: "fig7", Title: "Sampling methods", XLabel: "cost", YLabel: "accuracy"}
	var arms []namedArm
	for _, m := range []sampling.Method{sampling.Random, sampling.RCoV, sampling.SRCoV, sampling.ESRCoV} {
		// No MaxCoV cap: group quality must vary for the sampling methods
		// to differ (the paper selects "based on their CoV values" from a
		// population of mixed-quality groups).
		arms = append(arms, namedArm{m.String(), arm{Grouping: covg(sc.MinGS, 0), Sampling: m}})
	}
	return runs.accuracy(f, byCost, sc, CIFAR, comparisonAlpha, seed, arms...)
}

// Fig8 regenerates Fig. 8: the calibrated overhead model curves for both
// tasks, plus two operation counts scaled to overlay them at size 20:
// secure aggregation's mask streams, measured on the executable substrate,
// which confirm the quadratic shape the cost model assumes, and backdoor
// detection's pair count.
func Fig8() *trace.Figure {
	f := &trace.Figure{ID: "fig8", Title: "Overhead measurement", XLabel: "data/client number", YLabel: "time (s)"}
	for _, task := range []Task{CIFAR, SC} {
		p := task.Profile()
		tr := f.AddSeries(task.String() + " Training")
		sa := f.AddSeries(task.String() + " SecAgg")
		sc := f.AddSeries(task.String() + " SCAFFOLD SecAgg")
		bd := f.AddSeries(task.String() + " Backdoor Detection")
		for x := 2; x <= 50; x += 4 {
			tr.Add(float64(x), p.Training(x))
			sa.Add(float64(x), p.SecAgg(x))
			sc.Add(float64(x), p.ScaffoldSecAgg(x))
			bd.Add(float64(x), p.Backdoor(x))
		}
	}
	// Measured: run real sessions at a few sizes and scale ops → seconds so
	// the shape comparison is direct (anchor at size 20).
	p := cost.CIFARProfile()
	meas := f.AddSeries("SecAgg (measured ops, scaled)")
	anchorOps := secaggOps(20)
	k := p.SecAgg(20) / float64(anchorOps)
	for _, n := range []int{4, 10, 20, 30, 40} {
		meas.Add(float64(n), float64(secaggOps(n))*k)
	}
	bmeas := f.AddSeries("Backdoor (measured ops, scaled)")
	kb := p.Backdoor(20) / float64(backdoorOps(20))
	for _, n := range []int{4, 10, 20, 30, 40} {
		bmeas.Add(float64(n), float64(backdoorOps(n))*kb)
	}
	return f
}

// secaggOps runs one full secure aggregation of n clients and returns the
// PRG mask expansions performed.
func secaggOps(n int) int {
	q := secagg.DefaultQuantizer()
	s := secagg.NewSession(n, 16, n/2+1, 1, q)
	masked := make([][]uint64, n)
	for i := 0; i < n; i++ {
		masked[i] = s.MaskedUpdate(i, make([]float64, 16))
	}
	if _, err := s.Aggregate(masked, nil); err != nil {
		panic(fmt.Sprintf("experiments: secagg aggregation in ops count: %v", err))
	}
	return s.Ops().MaskStreams
}

// backdoorOps is the pair count n(n−1)/2: the similarity evaluations a
// FLAME-style detector makes over a group of n updates, one per pair.
func backdoorOps(n int) int { return n * (n - 1) / 2 }

// syntheticClients builds a Dirichlet-partitioned population without a full
// System (no model/test set), for formation-only experiments. Formation
// reads only label histograms, so the pool is drawn label-only.
func syntheticClients(n, classes int, alpha float64, seed uint64) []*data.Client {
	gen := data.NewGenerator(data.FlatConfig(classes, 4, seed))
	labels, _ := gen.Labels(n*60, 0)
	clients, _ := data.DirichletPartition(labels, data.PartitionConfig{
		NumClients: n, Alpha: alpha,
		MinSamples: 10, MaxSamples: 50, MeanSamples: 30, StdSamples: 10,
		Seed: seed + 13,
	})
	return clients
}

type xAxis int

const (
	byRound xAxis = iota
	byCost
)

// namedArm is one series of an accuracy figure and the run it plots.
type namedArm struct {
	name string
	arm  arm
}

// accuracy adds one accuracy series per arm to f, every run on the same
// task, skew and seed: the one path by which a figure trains.
func (r *Runs) accuracy(f *trace.Figure, axis xAxis, sc Scale, task Task, alpha float64, seed uint64, arms ...namedArm) *trace.Figure {
	for _, a := range arms {
		addAccuracyVs(f.AddSeries(a.name), r.result(sc, task, alpha, seed, a.arm), axis)
	}
	return f
}

// covg is Alg. 2 as the experiments run it: leftovers merged, MaxCoV ≤ 0
// uncapped.
func covg(minGS int, maxCoV float64) grouping.Algorithm {
	return grouping.CoVGrouping{Config: grouping.Config{MinGS: minGS, MaxCoV: maxCoV, MergeLeftover: true}}
}

// rg is random grouping tuned to groups of gs.
func rg(gs int) grouping.Algorithm {
	return grouping.RandomGrouping{Config: grouping.Config{MinGS: gs}, TargetGS: gs}
}

// addAccuracyVs appends a run's evaluated records to a series with the
// chosen x-axis.
func addAccuracyVs(s *trace.Series, res *core.Result, axis xAxis) {
	for _, r := range res.Records {
		if r.Accuracy < 0 {
			continue // evaluation skipped this round
		}
		switch axis {
		case byRound:
			s.Add(float64(r.Round), r.Accuracy)
		case byCost:
			s.Add(r.Cost, r.Accuracy)
		}
	}
}
