// Package multimodel implements the multi-model HFL scenario of Wei et al.
// (IEEE NAS'22), the participant-selection problem the paper cites as
// reference [23]: several federated models share the same client/edge
// fleet, and each global round every group can serve at most one model.
// The scheduler decides which groups train which model.
//
// Three schedulers are provided: Random (uniform split), RoundRobin (fixed
// rotation), and NeedyFirst — the CoV-aware policy in the spirit of the
// paper's prioritized sampling: the model with the lowest current accuracy
// picks first, and every model prefers low-CoV groups.
package multimodel

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// Scheduler assigns groups to models each round.
type Scheduler int

// The scheduling policies.
const (
	// Random splits the sampled groups uniformly at random.
	Random Scheduler = iota
	// RoundRobin rotates group blocks across models.
	RoundRobin
	// NeedyFirst lets the currently-worst model pick its groups first,
	// each pick CoV-prioritized.
	NeedyFirst
)

// String names the scheduler.
func (s Scheduler) String() string {
	switch s {
	case Random:
		return "Random"
	case RoundRobin:
		return "RoundRobin"
	case NeedyFirst:
		return "NeedyFirst"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// Config parameterizes a multi-model run.
type Config struct {
	// Models is the number of concurrent models (all built by the
	// system's NewModel with distinct seeds).
	Models int
	// GroupsPerModel is S for each model per round.
	GroupsPerModel int
	// Scheduler picks the assignment policy.
	Scheduler Scheduler
	// Train carries the shared per-group training knobs (T/K/E, LR, ...).
	// Grouping must be set; Sampling steers NeedyFirst's preference.
	Train core.Config
}

// ModelState tracks one model through the run.
type ModelState struct {
	Name     string
	Params   []float64
	Accuracy float64
	Rounds   []float64 // accuracy after each global round
}

// Result is the outcome of a multi-model run.
type Result struct {
	Models []*ModelState
	// MeanAccuracy is the final average over models.
	MeanAccuracy float64
	// Assignments[m] counts groups served to model m in total.
	Assignments []int
}

// Train runs T global rounds of multi-model HFL on the system.
func Train(sys *core.System, cfg Config) *Result {
	if cfg.Models < 1 {
		panic("multimodel: need at least one model")
	}
	if cfg.GroupsPerModel < 1 {
		panic("multimodel: GroupsPerModel must be positive")
	}
	if cfg.Train.Grouping == nil {
		panic("multimodel: Train.Grouping is required")
	}
	rng := stats.NewRNG(cfg.Train.Seed ^ 0x3417130de1)
	groups := grouping.FormAll(cfg.Train.Grouping, sys.Edges, sys.Classes, rng.Split(1))
	probs := sampling.Probabilities(groups, cfg.Train.Sampling)

	states := make([]*ModelState, cfg.Models)
	model := sys.NewModel(sys.ModelSeed)
	for m := range states {
		mm := sys.NewModel(sys.ModelSeed + uint64(m))
		states[m] = &ModelState{Name: fmt.Sprintf("model-%d", m), Params: mm.ParamVector()}
	}
	res := &Result{Models: states, Assignments: make([]int, cfg.Models)}

	// One executor — one worker pool — serves every model: a model's picked
	// groups train in parallel, the models one after another.
	exec := core.NewExecutor(sys, cfg.Train)
	for t := 0; t < cfg.Train.GlobalRounds; t++ {
		assignment := assign(cfg, states, groups, probs, rng.Split(uint64(10+t)))
		for m, picked := range assignment {
			if len(picked) == 0 {
				continue
			}
			res.Assignments[m] += len(picked)
			updates, err := exec.RunGroups(t, groups, picked, states[m].Params)
			if err != nil {
				panic(fmt.Sprintf("multimodel: %v", err))
			}
			// Weighted (biased) aggregation over this model's groups, a plain
			// sum in pick order — the order results/medium/multimodel.csv pins.
			next := make([]float64, len(states[m].Params))
			nt := 0
			for _, gi := range picked {
				nt += groups[gi].NumSamples()
			}
			for si, gi := range picked {
				w := float64(groups[gi].NumSamples()) / float64(nt)
				for j, v := range updates[si].Params {
					next[j] += float64(w * v)
				}
			}
			states[m].Params = next
		}
		for _, st := range states {
			model.SetParamVector(st.Params)
			st.Accuracy, _ = core.Evaluate(model, sys.Test, 0)
			st.Rounds = append(st.Rounds, st.Accuracy)
		}
	}
	sum := 0.0
	for _, st := range states {
		sum += st.Accuracy
	}
	res.MeanAccuracy = sum / float64(len(states))
	return res
}

// assign distributes up to Models×GroupsPerModel distinct groups.
func assign(cfg Config, states []*ModelState, groups []*grouping.Group, probs []float64, rng *stats.RNG) [][]int {
	total := cfg.Models * cfg.GroupsPerModel
	if total > len(groups) {
		total = len(groups)
	}
	out := make([][]int, cfg.Models)
	switch cfg.Scheduler {
	case Random:
		perm := rng.Perm(len(groups))[:total]
		for i, gi := range perm {
			m := i % cfg.Models
			out[m] = append(out[m], gi)
		}
	case RoundRobin:
		// Deterministic rotation: model m takes the block starting at
		// (round-varying) offset — rng.IntN supplies the per-round shift so
		// every model sees every group region over time.
		shift := rng.IntN(len(groups))
		for i := 0; i < total; i++ {
			gi := (shift + i) % len(groups)
			out[i%cfg.Models] = append(out[i%cfg.Models], gi)
		}
	case NeedyFirst:
		// Models ordered by ascending accuracy; each picks its S groups by
		// CoV-prioritized sampling from the remaining pool.
		order := make([]int, cfg.Models)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return states[order[a]].Accuracy < states[order[b]].Accuracy
		})
		remaining := append([]float64(nil), probs...)
		for _, m := range order {
			for k := 0; k < cfg.GroupsPerModel; k++ {
				if exhausted(remaining) {
					break
				}
				gi := sampling.Sample(rng, remaining, 1)[0]
				remaining[gi] = 0
				out[m] = append(out[m], gi)
			}
		}
	default:
		panic(fmt.Sprintf("multimodel: unknown scheduler %d", int(cfg.Scheduler)))
	}
	return out
}

func exhausted(p []float64) bool {
	for _, v := range p {
		if v > 0 {
			return false
		}
	}
	return true
}
