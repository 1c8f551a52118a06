package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/stats"
)

// groupWithCounts builds a single-client group with the given histogram.
func groupWithCounts(id int, counts []float64) *grouping.Group {
	n := 0
	for _, c := range counts {
		n += int(c)
	}
	client := &data.Client{ID: id, N: n, Counts: counts}
	return grouping.NewGroup(id, 0, []*data.Client{client}, len(counts))
}

// testGroups returns groups with increasing skew: g0 balanced ... g3 extreme.
func testGroups() []*grouping.Group {
	return []*grouping.Group{
		groupWithCounts(0, []float64{10, 10, 10, 10}),
		groupWithCounts(1, []float64{13, 11, 9, 7}),
		groupWithCounts(2, []float64{20, 10, 6, 4}),
		groupWithCounts(3, []float64{37, 1, 1, 1}),
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	groups := testGroups()
	for _, m := range []Method{Random, RCoV, SRCoV, ESRCoV} {
		p := Probabilities(groups, m)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("%v: negative probability %v", m, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%v: probabilities sum to %v", m, sum)
		}
	}
}

func TestProbabilitiesOrderFollowsCoV(t *testing.T) {
	groups := testGroups()
	for _, m := range []Method{RCoV, SRCoV, ESRCoV} {
		p := Probabilities(groups, m)
		for i := 0; i < len(p)-1; i++ {
			if p[i] < p[i+1] {
				t.Errorf("%v: p[%d]=%v < p[%d]=%v but group %d has better CoV",
					m, i, p[i], i+1, p[i+1], i)
			}
		}
	}
}

func TestProbabilitiesEmphasisOrdering(t *testing.T) {
	// The stronger the w(), the more mass concentrates on the best group:
	// ESRCoV ≥ SRCoV ≥ RCoV ≥ Random on p[best].
	groups := testGroups()
	pr := Probabilities(groups, Random)[0]
	p1 := Probabilities(groups, RCoV)[0]
	p2 := Probabilities(groups, SRCoV)[0]
	p3 := Probabilities(groups, ESRCoV)[0]
	if !(p3 >= p2 && p2 >= p1 && p1 >= pr) {
		t.Fatalf("emphasis ordering violated: Random %v RCoV %v SRCoV %v ESRCoV %v", pr, p1, p2, p3)
	}
}

func TestESRCoVNoOverflow(t *testing.T) {
	// A perfectly balanced group has CoV 0 → reciprocal capped; must not
	// produce NaN/Inf even alongside terrible groups.
	groups := []*grouping.Group{
		groupWithCounts(0, []float64{10, 10, 10, 10}),
		groupWithCounts(1, []float64{40, 0, 0, 0}),
	}
	p := Probabilities(groups, ESRCoV)
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("overflow in ESRCoV: %v", p)
		}
	}
	if p[0] < 0.999 {
		t.Fatalf("balanced group should dominate ESRCoV: %v", p)
	}
}

func TestRandomUniform(t *testing.T) {
	p := Probabilities(testGroups(), Random)
	for _, v := range p {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("Random probabilities not uniform: %v", p)
		}
	}
}

func TestSampleDistinctAndComplete(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := []float64{0.4, 0.3, 0.2, 0.05, 0.05}
		got := Sample(rng, p, 3)
		if len(got) != 3 {
			return false
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= len(p) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleAllReturnsEverything(t *testing.T) {
	rng := stats.NewRNG(1)
	p := []float64{0.25, 0.25, 0.25, 0.25}
	got := Sample(rng, p, 4)
	seen := make([]bool, 4)
	for _, i := range got {
		seen[i] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d missing from full sample", i)
		}
	}
}

func TestSampleRespectsWeights(t *testing.T) {
	rng := stats.NewRNG(2)
	p := []float64{0.9, 0.05, 0.03, 0.02}
	first := 0
	const n = 5000
	for i := 0; i < n; i++ {
		got := Sample(rng, p, 1)
		if got[0] == 0 {
			first++
		}
	}
	if frac := float64(first) / n; frac < 0.85 || frac > 0.95 {
		t.Fatalf("heavy group drawn %.3f of the time, want ~0.9", frac)
	}
}

func TestSampleZeroMassFill(t *testing.T) {
	rng := stats.NewRNG(3)
	p := []float64{1, 0, 0}
	got := Sample(rng, p, 3)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSamplePanics(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, fn := range []func(){
		func() { Sample(rng, []float64{1}, 0) },
		func() { Sample(rng, []float64{1}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBiasedWeightsSumToOne(t *testing.T) {
	groups := testGroups()
	p := Probabilities(groups, ESRCoV)
	w := Weights(groups, []int{0, 2}, p, 160, Biased)
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("biased weights sum %v", sum)
	}
	// Proportional to group data counts (both groups have 40 samples here).
	if math.Abs(w[0]-w[1]) > 1e-12 {
		t.Fatalf("equal-size groups should have equal biased weights: %v", w)
	}
}

func TestUnbiasedWeightsExpectation(t *testing.T) {
	// E[Σ_{g∈S_t} 1/(p_g S) · n_g/n · x_g] = Σ_g n_g/n x_g: check the weight
	// identity empirically with scalar "models" x_g = g's index. Groups
	// here all have CoV > 0 so no probability is floor-capped and the
	// estimator variance stays testable.
	groups := []*grouping.Group{
		groupWithCounts(0, []float64{11, 10, 10, 9}),
		groupWithCounts(1, []float64{13, 11, 9, 7}),
		groupWithCounts(2, []float64{20, 10, 6, 4}),
		groupWithCounts(3, []float64{25, 5, 6, 4}),
	}
	p := Probabilities(groups, RCoV)
	n := 0
	for _, g := range groups {
		n += g.NumSamples()
	}
	want := 0.0
	for gi, g := range groups {
		want += float64(g.NumSamples()) / float64(n) * float64(gi)
	}
	rng := stats.NewRNG(11)
	const rounds = 200000
	acc := 0.0
	for r := 0; r < rounds; r++ {
		sel := Sample(rng, p, 1) // without-replacement bias vanishes at S=1
		w := Weights(groups, sel, p, n, Unbiased)
		for i, gi := range sel {
			acc += w[i] * float64(gi)
		}
	}
	got := acc / rounds
	if math.Abs(got-want) > 0.02*math.Abs(want)+0.01 {
		t.Fatalf("unbiased estimator mean %v, want %v", got, want)
	}
}

func TestStabilizedWeightsNormalized(t *testing.T) {
	groups := testGroups()
	p := Probabilities(groups, ESRCoV)
	w := Weights(groups, []int{1, 3}, p, 160, Stabilized)
	sum := 0.0
	for _, v := range w {
		if v < 0 {
			t.Fatalf("negative stabilized weight %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("stabilized weights sum %v", sum)
	}
}

func TestStabilizedDampensExplosion(t *testing.T) {
	// A selected group with tiny p_g explodes the unbiased weight; the
	// stabilized scheme caps the total at 1.
	groups := testGroups()
	p := Probabilities(groups, ESRCoV) // group 3 has ~0 probability
	sel := []int{0, 3}
	unb := Weights(groups, sel, p, 160, Unbiased)
	stab := Weights(groups, sel, p, 160, Stabilized)
	sumU, sumS := 0.0, 0.0
	for i := range sel {
		sumU += unb[i]
		sumS += stab[i]
	}
	if sumU < 10 {
		t.Fatalf("expected unbiased explosion, sum=%v", sumU)
	}
	if math.Abs(sumS-1) > 1e-12 {
		t.Fatalf("stabilized sum %v", sumS)
	}
}

func TestGammaP(t *testing.T) {
	if got := GammaP([]float64{0.5, 0.5}); got != 4 {
		t.Fatalf("GammaP uniform = %v, want 4", got)
	}
	// More uneven p → larger Γ_p (second key observation).
	uneven := GammaP([]float64{0.9, 0.1})
	if uneven <= 4 {
		t.Fatalf("uneven GammaP %v should exceed uniform 4", uneven)
	}
	if !math.IsInf(GammaP([]float64{1, 0}), 1) {
		t.Fatal("zero probability should give infinite GammaP")
	}
}

func TestMethodAndSchemeStrings(t *testing.T) {
	if Random.String() != "Random" || RCoV.String() != "RCoV" ||
		SRCoV.String() != "SRCoV" || ESRCoV.String() != "ESRCoV" {
		t.Fatal("method names wrong")
	}
	if Biased.String() != "Biased" || Unbiased.String() != "Unbiased" || Stabilized.String() != "Stabilized" {
		t.Fatal("scheme names wrong")
	}
}
