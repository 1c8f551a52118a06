package theory

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/stats"
)

func baseParams() Params {
	return Params{
		Eta: 0.01, T: 100, K: 5, E: 2,
		L: 1, Sigma2: 1, Zeta2: 1, ZetaG2: 0.5,
		F0MinusFStar: 10, S: 12,
		Gamma: 1.2, GammaBig: 1.1, GammaP: 100, GroupSize: 6,
	}
}

func TestBoundFinitePositive(t *testing.T) {
	b := Bound(baseParams())
	if math.IsInf(b, 0) || math.IsNaN(b) || b <= 0 {
		t.Fatalf("bound = %v", b)
	}
}

func TestBoundDecreasesWithT(t *testing.T) {
	p := baseParams()
	short := Bound(p)
	p.T = 1000
	long := Bound(p)
	if long >= short {
		t.Fatalf("more rounds should tighten the bound: T=100 %v vs T=1000 %v", short, long)
	}
}

func TestBoundIncreasesWithGroupHeterogeneity(t *testing.T) {
	// First key observation: larger ζ_g ⇒ slower convergence.
	p := baseParams()
	low := Bound(p)
	p.ZetaG2 = 5
	high := Bound(p)
	if high <= low {
		t.Fatalf("larger zeta_g should loosen the bound: %v vs %v", low, high)
	}
}

func TestBoundIncreasesWithSamplingSpread(t *testing.T) {
	// Second key observation: larger Γ_p ⇒ slower convergence.
	p := baseParams()
	low := Bound(p)
	p.GammaP = 10000
	high := Bound(p)
	if high <= low {
		t.Fatalf("larger GammaP should loosen the bound: %v vs %v", low, high)
	}
}

func TestBoundIncreasesWithGamma(t *testing.T) {
	// Third key observation: larger γ ⇒ slower convergence.
	p := baseParams()
	low := Bound(p)
	p.Gamma = 3
	high := Bound(p)
	if high <= low {
		t.Fatalf("larger gamma should loosen the bound: %v vs %v", low, high)
	}
}

func TestBoundInfiniteWhenLambda1Violated(t *testing.T) {
	p := baseParams()
	p.Eta = 10 // absurd step size breaks Eq. 14
	if !math.IsInf(Bound(p), 1) {
		t.Fatal("bound should be +Inf when lambda1 <= 0")
	}
}

func TestDeriveLambdasPositive(t *testing.T) {
	lam := Derive(baseParams())
	for name, v := range map[string]float64{
		"lambda1": lam.Lambda1, "lambda2": lam.Lambda2, "lambda3": lam.Lambda3,
		"lambda4": lam.Lambda4, "lambdaS": lam.LambdaS, "lambdaSigma": lam.LambdaSigma,
		"lambdaF": lam.LambdaF,
	} {
		if v <= 0 || math.IsNaN(v) {
			t.Errorf("%s = %v, want positive", name, v)
		}
	}
}

func TestFromSystem(t *testing.T) {
	g := data.NewGenerator(data.FlatConfig(10, 4, 1))
	ds := g.Sample(4000, 0)
	clients := data.DirichletPartition(ds, data.DefaultPartitionConfig(30, 0.3, 2))
	covg := grouping.CoVGrouping{Config: grouping.Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}}
	groups := covg.Form(clients, ds.Classes, 0, 0, stats.NewRNG(3))
	p := sampling.Probabilities(groups, sampling.RCoV)

	params := FromSystem(groups, p, baseParams())
	if params.Gamma < 1 {
		t.Fatalf("gamma = %v, must be >= 1", params.Gamma)
	}
	if params.GammaBig < 1 {
		t.Fatalf("Gamma = %v, must be >= 1", params.GammaBig)
	}
	if params.GammaP < float64(len(groups)) {
		t.Fatalf("GammaP = %v, must be >= |G|", params.GammaP)
	}
	if params.ZetaG2 < 0 {
		t.Fatalf("ZetaG2 = %v", params.ZetaG2)
	}
	if params.GroupSize < float64(covg.MinGS) {
		t.Fatalf("GroupSize = %v below MinGS", params.GroupSize)
	}
	if !math.IsInf(Bound(params), 0) && Bound(params) <= 0 {
		t.Fatalf("system bound = %v", Bound(params))
	}

	// CoV grouping should give a smaller ζ_g proxy than random grouping.
	rg := grouping.RandomGrouping{Config: grouping.Config{MinGS: 5}}
	rGroups := rg.Form(clients, ds.Classes, 0, 0, stats.NewRNG(3))
	rParams := FromSystem(rGroups, sampling.Probabilities(rGroups, sampling.Random), baseParams())
	if params.ZetaG2 >= rParams.ZetaG2 {
		t.Fatalf("CoVG zeta_g proxy %v should beat RG %v", params.ZetaG2, rParams.ZetaG2)
	}
}

func TestUniformSamplingMinimizesGammaP(t *testing.T) {
	// Γ_p = Σ 1/p_g is minimized by uniform p (Jensen); check against a few
	// skewed vectors of the same dimension.
	uniform := sampling.GammaP([]float64{0.25, 0.25, 0.25, 0.25})
	for _, p := range [][]float64{
		{0.4, 0.3, 0.2, 0.1},
		{0.7, 0.1, 0.1, 0.1},
		{0.97, 0.01, 0.01, 0.01},
	} {
		if sampling.GammaP(p) < uniform {
			t.Fatalf("GammaP(%v) < uniform", p)
		}
	}
}
