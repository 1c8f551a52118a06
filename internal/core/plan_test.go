package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/sampling"
)

// planConfig is a control-plane-only config: random groups of two skewed
// clients keep every group's CoV near 1, so even ESRCoV's e^{1/CoV²}
// weighting leaves every group a realistic chance of being drawn.
func planConfig() Config {
	return Config{
		SampleGroups: 1,
		Grouping:     grouping.RandomGrouping{TargetGS: 2},
		Sampling:     sampling.Random,
		Weights:      sampling.Unbiased,
		Seed:         5,
	}
}

// groupValue is a fixed, group-dependent stand-in for a group model x_g.
func groupValue(g *grouping.Group) float64 { return 1 + 0.37*float64(g.ID%7) }

// TestPlanUnbiasedWeightsMatchFullParticipation is the Fraboni et al.
// soundness check for Eq. 4, run through the Plan: at S=1 the Unbiased
// weight of the drawn group is (n_g/n)/p_g, so E[w·x_g] is exactly the
// full-participation aggregate Σ (n_g/n)·x_g — provided the weight divides
// by the very probability the draw used. Over N seeded draws the sample mean
// must land within z=5 standard errors (σ from the known draw distribution),
// for every sampling method and with the adaptive sampler mid-run, where the
// drawn vector is the EWMA mix rather than the base p_g.
func TestPlanUnbiasedWeightsMatchFullParticipation(t *testing.T) {
	const draws = 20000
	sys := testSystem(24, 0.1, 3)
	for _, adaptive := range []bool{false, true} {
		for _, m := range []sampling.Method{sampling.Random, sampling.RCoV, sampling.SRCoV, sampling.ESRCoV} {
			t.Run(fmt.Sprintf("%s/adaptive=%v", m, adaptive), func(t *testing.T) {
				cfg := planConfig()
				cfg.Sampling = m
				if adaptive {
					cfg.AdaptiveSampling = &sampling.AdaptiveConfig{Beta: 0.5, Explore: 0.2}
				}
				p, err := NewPlan(sys, cfg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				round := 0
				if adaptive {
					// Warm the EWMAs with group-dependent update norms, then
					// stop observing: the mix stays put while we sample it.
					base := []float64{0}
					for ; round < 3*len(p.Groups()); round++ {
						gi := p.Next(round)[0]
						p.Fold([][]float64{{groupValue(p.Groups()[gi])}}, base, []float64{0}, 1)
					}
				}

				groups, n := p.Groups(), 0
				for _, g := range groups {
					n += g.NumSamples()
				}
				if n != p.totalSamples {
					t.Fatalf("groups hold %d samples, population %d", n, p.totalSamples)
				}
				p.Next(round)
				round++
				drawn := append([]float64(nil), p.drawn...)
				if adaptive {
					same := true
					for g := range drawn {
						same = same && math.Float64bits(drawn[g]) == math.Float64bits(p.Probs()[g])
					}
					if same {
						t.Fatal("adaptive mix equals the base vector; the test would not tell the two apart")
					}
				}
				want, second := 0.0, 0.0
				for g, gr := range groups {
					if drawn[g]*draws < 50 {
						t.Fatalf("group %d has p=%g: too rare for %d draws to be a fair check", g, drawn[g], draws)
					}
					y := float64(gr.NumSamples()) / float64(n) * groupValue(gr)
					want += y
					second += y * y / drawn[g]
				}
				tol := 5 * math.Sqrt((second-want*want)/draws)

				sum := 0.0
				for i := 0; i < draws; i++ {
					gi := p.Next(round + i)[0]
					sum += p.Weights()[0] * groupValue(groups[gi])
				}
				if got := sum / draws; math.Abs(got-want) > tol {
					t.Fatalf("mean of w·x_g = %.6f, full-participation aggregate %.6f: off by %.2g > 5σ/√N = %.2g",
						got, want, math.Abs(got-want), tol)
				}
			})
		}
	}
}

// TestPlanProbsInvariantToSampleScale is the metamorphic companion: p_g is
// a function of label *proportions* (CoV), so multiplying every client's
// n_i by a constant must leave the formation and Plan.Probs() unchanged.
func TestPlanProbsInvariantToSampleScale(t *testing.T) {
	const scale = 3
	sys := testSystem(24, 0.5, 9)
	// The Plan reads only the population and its edge layout.
	scaled := &System{Classes: sys.Classes}
	byID := map[int]*data.Client{}
	scaled.Clients = make([]*data.Client, len(sys.Clients))
	for i, c := range sys.Clients {
		sc := &data.Client{ID: c.ID, N: c.N * scale, Counts: make([]float64, len(c.Counts))}
		for k, v := range c.Counts {
			sc.Counts[k] = v * scale
		}
		scaled.Clients[i], byID[c.ID] = sc, sc
	}
	scaled.Edges = make([][]*data.Client, len(sys.Edges))
	for e, clients := range sys.Edges {
		for _, c := range clients {
			scaled.Edges[e] = append(scaled.Edges[e], byID[c.ID])
		}
	}

	for _, m := range []sampling.Method{sampling.Random, sampling.RCoV, sampling.SRCoV, sampling.ESRCoV} {
		cfg := testConfig()
		cfg.Sampling = m
		a, err := NewPlan(sys, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewPlan(scaled, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Groups()) != len(b.Groups()) {
			t.Fatalf("%s: %d groups vs %d after scaling", m, len(a.Groups()), len(b.Groups()))
		}
		for g := range a.Probs() {
			pa, pb := a.Probs()[g], b.Probs()[g]
			if math.Abs(pa-pb) > 1e-9*pa {
				t.Fatalf("%s: p_%d = %g, %g after scaling every n_i by %d", m, g, pa, pb, scale)
			}
		}
	}
}

// planRound is everything one Plan round decides, captured bit for bit.
type planRound struct {
	selected       []int
	drawn, weights []uint64
	next           []uint64
}

// stepPlan drives one control-plane round with synthetic group models
// (group-, round- and coordinate-dependent, so the adaptive EWMAs move) and
// returns the decisions plus the folded vector, which becomes the next base.
func stepPlan(p *Plan, t int, base []float64) (planRound, []float64) {
	sel := p.Next(t)
	rec := planRound{selected: append([]int(nil), sel...)}
	for _, v := range p.drawn {
		rec.drawn = append(rec.drawn, math.Float64bits(v))
	}
	for _, v := range p.Weights() {
		rec.weights = append(rec.weights, math.Float64bits(v))
	}
	updates := make([][]float64, len(sel))
	for si, gi := range sel {
		updates[si] = make([]float64, len(base))
		for j := range base {
			updates[si][j] = base[j] + 0.01*float64(1+p.Groups()[gi].ID%5)*float64(j+1) - 0.002*float64(t)
		}
	}
	next := make([]float64, len(base))
	p.Fold(updates, base, next, 1)
	for _, v := range next {
		rec.next = append(rec.next, math.Float64bits(v))
	}
	return rec, next
}

// TestPlanStateRoundTrip is the direct test of the regroup-replay logic:
// with regrouping and adaptive sampling on, a Plan exported at a boundary
// and restored into a fresh Plan must make Float64bits-identical decisions —
// selections, drawn probabilities, weights, folded vector — for every
// remaining round. The boundaries straddle round 0, the first regroup, and
// the last round.
func TestPlanStateRoundTrip(t *testing.T) {
	const rounds, regroup = 10, 3
	sys := testSystem(20, 0.5, 4)
	cfg := testConfig()
	cfg.RegroupEvery = regroup
	cfg.Weights = sampling.Stabilized
	cfg.AdaptiveSampling = &sampling.AdaptiveConfig{Beta: 0.4, Explore: 0.1}
	boundaries := map[int]bool{0: true, 1: true, regroup: true, regroup + 1: true, rounds - 1: true}

	ref, err := NewPlan(sys, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := []float64{0.5, -0.25, 0.125, 1}
	var want []planRound
	snaps := map[int]*TrainerState{}
	for r := 0; r < rounds; r++ {
		if boundaries[r] {
			st := &TrainerState{Round: r, Params: append([]float64(nil), base...)}
			ref.Export(st)
			snaps[r] = st
		}
		var rec planRound
		rec, base = stepPlan(ref, r, base)
		want = append(want, rec)
	}

	for at, st := range snaps {
		p, err := NewPlan(sys, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Restore(st); err != nil {
			t.Fatalf("restore at round %d: %v", at, err)
		}
		base := st.Params
		for r := at; r < rounds; r++ {
			var got planRound
			got, base = stepPlan(p, r, base)
			if fmt.Sprint(got) != fmt.Sprint(want[r]) {
				t.Fatalf("restored at round %d, round %d diverges:\n got  %v\n want %v", at, r, got, want[r])
			}
		}
	}
}
