package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// Plan is the control plane of Alg. 1: everything between "here is a System
// and a seed" and "here is next round's global vector" that does not train a
// client. It forms the groups (and re-forms them on the RegroupEvery
// schedule), derives p_g, draws S_t, publishes the fel_core_group_* audit
// series, and folds the returned group models with Eq. 4 / Eq. 35 weights
// computed against the very vector the draw used — the coupling the
// estimator's soundness rests on (Fraboni et al., PAPERS.md). Trainer.Step is
// the one caller of Next and Fold, whatever Executor trains the groups in
// between.
//
// The parent stream is consumed only by Split calls whose tags are pure
// functions of the round index — Split(1) formation, Split(2) the sampling
// stream, Split(100+t) the regroup at round t — so Restore replays them
// instead of serializing the parent; the sampling stream's two PCG words and
// the adaptive EWMAs are the only state a snapshot carries.
type Plan struct {
	sys *System
	cfg Config

	rng       *stats.RNG
	sampleRng *stats.RNG
	// sampler carries the O(groups) selection scratch across rounds, so a
	// steady-state Next allocates nothing.
	sampler  sampling.Sampler
	adaptive *sampling.Adaptive
	fixed    [][]int

	groups []*grouping.Group
	// probs is the formation's base p_g; drawn is the vector the most recent
	// Next sampled from (probs, or the adaptive mix) and selected its S_t.
	probs    []float64
	drawn    []float64
	selected []int

	selCtrs      []*metrics.Counter
	roundsCtr    *metrics.Counter
	totalSamples int
}

// NewPlan forms the groups and derives the sampling state for one run. Of
// cfg it reads Seed, Grouping, Sampling, Weights, SampleGroups, RegroupEvery,
// AdaptiveSampling, Metrics and (to size fixed) GlobalRounds. pinned, when
// non-nil, is used verbatim in place of the initial formation; fixed, when
// non-nil, replaces sampling — round t selects fixed[t], group-list indices.
func NewPlan(sys *System, cfg Config, pinned []*grouping.Group, fixed [][]int) (*Plan, error) {
	p := &Plan{sys: sys, cfg: cfg, rng: stats.NewRNG(cfg.Seed), fixed: fixed}
	p.roundsCtr = cfg.Metrics.Counter("fel_core_rounds_total")
	if pinned != nil {
		p.groups = pinned
		p.publish()
	} else {
		p.form(1)
	}
	if len(p.groups) == 0 {
		return nil, errors.New("core: formation produced no groups")
	}
	if fixed != nil && len(fixed) != cfg.GlobalRounds {
		return nil, fmt.Errorf("core: fixed selection has %d rounds, want %d", len(fixed), cfg.GlobalRounds)
	}
	for t, sel := range fixed {
		if len(sel) == 0 {
			return nil, fmt.Errorf("core: fixed selection for round %d is empty", t)
		}
		for _, gi := range sel {
			if gi < 0 || gi >= len(p.groups) {
				return nil, fmt.Errorf("core: fixed selection index %d out of range [0,%d)", gi, len(p.groups))
			}
		}
	}
	p.sampleRng = p.rng.Split(2)
	for _, c := range sys.Clients {
		p.totalSamples += c.NumSamples()
	}
	if cfg.AdaptiveSampling != nil {
		p.adaptive = sampling.NewAdaptive(*cfg.AdaptiveSampling, len(p.groups))
	}
	return p, nil
}

// form runs group formation (Alg. 1 lines 2–3) on the parent stream's
// Split(tag) child and republishes the sampling state (line 4).
func (p *Plan) form(tag uint64) {
	span := p.cfg.Metrics.Start("fel_core_formation_seconds")
	p.groups = grouping.FormAll(p.cfg.Grouping, p.sys.Edges, p.sys.Classes, p.rng.Split(tag))
	span.End()
	p.publish()
}

// publish derives p_g for the live formation and exports one probability,
// CoV and size gauge per group, so the gauges always describe the formation
// in force. The sampling-frequency audit (EXPERIMENTS.md) compares
// fel_core_group_selected_total empirical frequencies against these
// fel_core_group_prob values. The selection counter handle of every group is
// cached, so Next increments counters instead of paying a strconv render
// plus registry lookup per selection.
func (p *Plan) publish() {
	reg := p.cfg.Metrics
	p.probs = sampling.Probabilities(p.groups, p.cfg.Sampling)
	p.selCtrs = make([]*metrics.Counter, len(p.groups))
	if reg == nil {
		// Nothing to export: every handle is the one discard counter, and a
		// label render plus a CoV per group is pure waste at 20k groups.
		discard := reg.Counter("fel_core_group_selected_total")
		for i := range p.selCtrs {
			p.selCtrs[i] = discard
		}
		return
	}
	for i, g := range p.groups {
		gl := metrics.L("group", strconv.Itoa(g.ID))
		reg.Gauge("fel_core_group_prob", gl).Set(p.probs[i])
		reg.Gauge("fel_core_group_cov", gl).Set(g.CoV())
		reg.Gauge("fel_core_group_size", gl).Set(float64(g.Size()))
		p.selCtrs[i] = reg.Counter("fel_core_group_selected_total", gl)
	}
}

// regroup re-forms the groups when round t is on the RegroupEvery schedule
// (Sec. 6.1): the random first pick in Alg. 2 makes each regroup explore a
// different formation. The adaptive EWMAs are keyed by group identity, so a
// new formation starts the estimator over from the fresh CoV prior.
func (p *Plan) regroup(t int) {
	if !p.regroupDue(t) {
		return
	}
	p.form(uint64(100 + t))
	if p.adaptive != nil {
		p.adaptive.Reset(len(p.groups))
	}
}

// regroupDue reports whether round t is on the RegroupEvery schedule.
func (p *Plan) regroupDue(t int) bool {
	return p.cfg.RegroupEvery > 0 && t > 0 && t%p.cfg.RegroupEvery == 0
}

// Groups returns the live formation. Selections index into it.
func (p *Plan) Groups() []*grouping.Group { return p.groups }

// Probs returns the live formation's base sampling vector p_g (Eq. 34).
func (p *Plan) Probs() []float64 { return p.probs }

// Next opens global round t (Alg. 1 line 6): regroups when due, then draws
// S_t. With adaptive sampling the draw uses the EWMA-adapted vector — the
// base vector verbatim until the first observation after a (re)formation.
// The returned indices into Groups alias internal scratch and are valid
// until the following Next.
func (p *Plan) Next(t int) []int {
	p.regroup(t)
	p.drawn = p.probs
	if p.adaptive != nil {
		p.drawn = p.adaptive.Mix(p.probs)
	}
	if p.fixed != nil {
		p.selected = p.fixed[t]
	} else {
		p.selected = p.sampler.Sample(p.sampleRng, p.drawn, min(p.cfg.SampleGroups, len(p.groups)))
	}
	p.roundsCtr.Inc()
	for _, gi := range p.selected {
		p.selCtrs[gi].Inc()
	}
	return p.selected
}

// Weights returns the aggregation weights of the current selection, aligned
// with it, against the same probability vector Next drew from.
func (p *Plan) Weights() []float64 {
	return sampling.Weights(p.groups, p.selected, p.drawn, p.totalSamples, p.cfg.Weights)
}

// Fold closes the round (Alg. 1 line 15): dst = Σ w_si·updates[si] as a
// fixed-pairing tree over selection order, so the float sum is replay-stable
// at any par. updates holds the selected groups' models in selection order
// and is consumed as tree scratch; base is the global vector they trained
// from, against which the adaptive sampler measures each update's norm. The
// unbiased estimator targets the full-population average, so the weights may
// not sum to 1 in-sample — which is the point (Eq. 4).
func (p *Plan) Fold(updates [][]float64, base, dst []float64, par int) {
	if p.adaptive != nil {
		for si, gi := range p.selected {
			p.adaptive.Observe(gi, updateNorm(updates[si], base))
		}
	}
	copy(dst, treeFold(updates, p.Weights(), len(updates), par))
}

// updateNorm is ‖g − base‖₂, the observed group update magnitude the
// adaptive sampler treats as utility evidence.
func updateNorm(g, base []float64) float64 {
	s := 0.0
	for i := range g {
		d := g[i] - base[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// Export writes the plan's cross-round state into st: the sampling stream's
// PCG words and, when sampling adaptively, the EWMA utilities. Formation is
// deliberately absent — Restore replays it from the seed.
func (p *Plan) Export(st *TrainerState) {
	st.SampleHi, st.SampleLo = p.sampleRng.State()
	if p.adaptive != nil {
		ast := p.adaptive.Export()
		st.Adaptive = &ast
	}
}

// Restore brings a freshly built plan to the boundary before round st.Round:
// it consumes the parent stream exactly as the original run's regroups did
// before the snapshot, forming only the last of them — the formation in
// force — since each earlier one was superseded, then overwrites the
// sampling stream and the adaptive state with the serialized values.
func (p *Plan) Restore(st *TrainerState) error {
	last := 0
	for r := 1; r < st.Round; r++ {
		if p.regroupDue(r) {
			if last > 0 {
				p.rng.Split(uint64(100 + last)) // the one parent word form would draw
			}
			last = r
		}
	}
	p.regroup(last)
	p.sampleRng.SetState(st.SampleHi, st.SampleLo)
	if st.Adaptive != nil {
		if p.adaptive == nil {
			return errors.New("core: snapshot carries adaptive-sampling state but cfg.AdaptiveSampling is nil")
		}
		return p.adaptive.Restore(*st.Adaptive)
	}
	return nil
}
