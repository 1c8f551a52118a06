package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/grouping"
	"repro/internal/sampling"
)

// arm is what one training run varies beyond its scale, task, skew and
// seed: either a comparison method, trained by baselines.Run with Opts, or
// Group-FEL's pipeline on the scale's base configuration with the given
// formation, sampling, weighting, regroup period and dropout probability.
// Every field is a value, so two equal arms train the same run.
type arm struct {
	Method baselines.Name
	Opts   baselines.Options

	Grouping     grouping.Algorithm
	Sampling     sampling.Method
	Weights      sampling.WeightScheme
	RegroupEvery int
	DropoutProb  float64
}

// runKey describes one run completely and by value: the scale without its
// metrics registry, so no pointer takes part in a comparison.
type runKey struct {
	sc    Scale
	task  Task
	alpha float64
	seed  uint64
	arm   arm
}

// Runs trains each distinct run once and hands every later request for it
// the same *core.Result, which callers only read. A nil *Runs trains every
// request afresh. Not safe for concurrent use.
type Runs struct {
	done            map[runKey]*core.Result
	trained, reused int
}

// NewRuns returns an empty run cache.
func NewRuns() *Runs { return &Runs{done: map[runKey]*core.Result{}} }

// Counts reports how many runs were trained and how many requests were
// answered from an earlier training.
func (r *Runs) Counts() (trained, reused int) { return r.trained, r.reused }

// result returns the run a describes on a fresh System at this scale,
// training it only if no earlier request described the same run. A
// comparison method that sets nothing but formation, sampling and weights
// is keyed as the pipeline arm it configures, so Figs. 9–10's Group-FEL is
// Fig. 7's ESRCoV run.
func (r *Runs) result(sc Scale, task Task, alpha float64, seed uint64, a arm) *core.Result {
	base := sc.BaseConfig(task, seed)
	if a.Method != "" && a.Method != baselines.FedCLAR {
		cfg := baselines.Configure(a.Method, base, a.Opts)
		if cfg.Local == nil && cfg.CostProfile == base.CostProfile && cfg.CostOps == base.CostOps {
			a = arm{Grouping: cfg.Grouping, Sampling: cfg.Sampling, Weights: cfg.Weights}
		}
	}
	if r == nil {
		return a.train(sc.NewSystem(task, alpha, seed), base)
	}
	key := runKey{sc: sc, task: task, alpha: alpha, seed: seed, arm: a}
	key.sc.Metrics = nil
	if res, ok := r.done[key]; ok {
		r.reused++
		return res
	}
	res := a.train(sc.NewSystem(task, alpha, seed), base)
	r.done[key] = res
	r.trained++
	return res
}

// train runs the arm on sys from base. A method's configuration, SCAFFOLD's
// stateful updater among it, is built afresh by baselines.Run.
func (a arm) train(sys *core.System, base core.Config) *core.Result {
	if a.Method != "" {
		return baselines.Run(a.Method, sys, base, a.Opts)
	}
	cfg := base
	cfg.Grouping, cfg.Sampling, cfg.Weights = a.Grouping, a.Sampling, a.Weights
	cfg.RegroupEvery, cfg.DropoutProb = a.RegroupEvery, a.DropoutProb
	return core.Train(sys, cfg)
}
