// Command groupfel runs one federated training job — Group-FEL or any of
// the paper's baselines — and prints the per-round accuracy/cost trajectory
// and the final summary.
//
// Usage:
//
//	groupfel -method Group-FEL -task cifar -scale small -rounds 20 -alpha 0.1
//	groupfel -method FedAvg -task sc -alpha 0.01
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/baselines"
	"repro/internal/experiments"
)

func main() {
	var (
		method  = flag.String("method", "Group-FEL", "method: FedAvg, FedProx, SCAFFOLD, Group-FEL, OUEA, SHARE, FedCLAR")
		task    = flag.String("task", "cifar", "task: cifar or sc")
		scale   = flag.String("scale", "small", "scale: small, medium, or paper")
		rounds  = flag.Int("rounds", 0, "override global rounds (0 = scale default)")
		alpha   = flag.Float64("alpha", 0.5, "Dirichlet concentration (smaller = more skew)")
		seed    = flag.Uint64("seed", 1, "random seed")
		budget  = flag.Float64("budget", 0, "cost budget (0 = scale default)")
		dropout = flag.Float64("dropout", 0, "client dropout probability")
	)
	flag.Parse()

	sc, err := experiments.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "groupfel:", err)
		os.Exit(2)
	}
	if err := checkRanges(*alpha, *dropout, *rounds, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "groupfel:", err)
		os.Exit(2)
	}
	if *rounds > 0 {
		sc.GlobalRounds = *rounds
	}
	if *budget > 0 {
		sc.CostBudget = *budget
	}
	var tk experiments.Task
	switch strings.ToLower(*task) {
	case "cifar":
		tk = experiments.CIFAR
	case "sc":
		tk = experiments.SC
	default:
		fmt.Fprintf(os.Stderr, "groupfel: unknown task %q (want cifar or sc)\n", *task)
		os.Exit(2)
	}
	var name baselines.Name
	for _, m := range baselines.All() {
		if strings.EqualFold(string(m), *method) {
			name = m
		}
	}
	if name == "" {
		fmt.Fprintf(os.Stderr, "groupfel: unknown method %q\n", *method)
		os.Exit(2)
	}

	fmt.Printf("method=%s task=%s scale=%s clients=%d edges=%d T=%d K=%d E=%d S=%d alpha=%g seed=%d\n",
		name, tk, sc.Name, sc.Clients, sc.Edges, sc.GlobalRounds, sc.GroupRounds,
		sc.LocalEpochs, sc.SampleGroups, *alpha, *seed)

	sys := sc.NewSystem(tk, *alpha, *seed)
	opts := baselines.DefaultOptions(sc.Clients, sc.TargetGS)
	opts.MinGS = sc.MinGS
	opts.MaxCoV = sc.MaxCoV
	base := sc.BaseConfig(tk, *seed)
	base.DropoutProb = *dropout
	res := baselines.Run(name, sys, base, opts)

	fmt.Println("\nround  accuracy   loss     cost        selCoV")
	for _, r := range res.Records {
		if r.Accuracy < 0 {
			continue
		}
		fmt.Printf("%5d  %7.4f  %7.4f  %10.1f  %6.3f\n", r.Round, r.Accuracy, r.Loss, r.Cost, r.AvgSelectedCoV)
	}
	fmt.Printf("\ngroups=%d  rounds run=%d  dropped updates=%d\n", len(res.Groups), res.RoundsRun, res.Dropouts)
	fmt.Printf("final accuracy=%.4f  loss=%.4f  total cost=%.1f\n",
		res.FinalAccuracy, res.FinalLoss, res.TotalCost)
	fmt.Printf("participation: %d/%d clients, Jain fairness %.3f\n",
		res.UniqueParticipants(), len(sys.Clients), res.FairnessIndex(sys))
}

// checkRanges rejects a flag value no run can start from, naming the valid
// range: the partition draws Gamma(α) variates, a dropout probability of 1
// or more leaves no update to aggregate, and a negative round count or cost
// budget means nothing (0 keeps the scale's default).
func checkRanges(alpha, dropout float64, rounds int, budget float64) error {
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		return fmt.Errorf("-alpha must be positive and finite, got %g", alpha)
	}
	if !(dropout >= 0 && dropout < 1) {
		return fmt.Errorf("-dropout must be in [0, 1), got %g", dropout)
	}
	if rounds < 0 {
		return fmt.Errorf("-rounds must be non-negative (0 = scale default), got %d", rounds)
	}
	if !(budget >= 0) {
		return fmt.Errorf("-budget must be non-negative (0 = scale default), got %g", budget)
	}
	return nil
}
