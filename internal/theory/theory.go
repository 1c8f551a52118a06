// Package theory evaluates the right-hand side of the paper's convergence
// bound (Theorem 1) for concrete system configurations. It does not prove
// anything — it makes the bound's structure executable so experiments can
// report how the γ, Γ, Γ_p and ζ_g factors move as grouping and sampling
// choices change, and tests can check the bound's qualitative predictions
// (larger group heterogeneity or sampling spread ⇒ larger bound).
package theory

import (
	"math"

	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// Params collects the problem constants of Theorem 1.
type Params struct {
	// Eta is the local learning rate η.
	Eta float64
	// T, K, E are the global, group, and local round counts.
	T, K, E int
	// L is the smoothness constant (Assumption 2).
	L float64
	// Sigma2 is the local gradient variance bound σ² (Assumption 1).
	Sigma2 float64
	// Zeta2 is the client heterogeneity bound ζ² (Assumption 3).
	Zeta2 float64
	// ZetaG2 is the group heterogeneity bound ζ_g² (Assumption 4).
	ZetaG2 float64
	// F0MinusFStar bounds f(x₀) − E[f(x_T)].
	F0MinusFStar float64
	// S is the number of sampled groups |S_t|.
	S int
	// Gamma is the within-group data dispersion γ (Eq. 11).
	Gamma float64
	// GammaBig is the across-group dispersion Γ (Eq. 12).
	GammaBig float64
	// GammaP is the sampling spread Γ_p ≥ Σ 1/p_g (Eq. 12).
	GammaP float64
	// GroupSize is the (average) group size |g| appearing in Eq. 17.
	GroupSize float64
}

// Lambdas holds the derived constants of Eq. 13–17.
type Lambdas struct {
	Lambda1, Lambda2, Lambda3, Lambda4 float64
	LambdaS, LambdaSigma, LambdaF      float64
}

// Derive computes the λ constants from the parameters per Eq. 13–17.
func Derive(p Params) Lambdas {
	eta, k, e, l := p.Eta, float64(p.K), float64(p.E), p.L
	gs := p.GroupSize
	if gs <= 0 {
		gs = 1
	}
	var out Lambdas
	out.LambdaSigma = 5 * k * eta * eta * e * e *
		(1 + float64((float64((1+float64(6*k))*e)+float64(9*k))*10*eta*eta*e*l*l) + 18*k/(gs*e))
	out.Lambda2 = float64(3*out.LambdaSigma*p.Gamma*l*l) + float64(5*eta*eta*e*e*l*l)
	out.Lambda3 = 2700 * math.Pow(eta, 4) * p.Gamma * k * k * math.Pow(e, 4) * l * l
	out.Lambda4 = 90 * eta * eta * k * k * e * e * l * l
	out.LambdaF = 30 * eta * eta * k * k * (1 + float64(90*p.Gamma*eta*eta*e*e*l*l))
	out.LambdaS = eta * p.Gamma * p.GammaBig * k * k * (1 + float64(10*eta*eta*e*e*l*l*p.Sigma2))
	out.Lambda1 = 0.5 - float64(3*out.LambdaF*eta*p.Gamma*p.GammaBig*k*e*l*l)
	return out
}

// Bound evaluates the Theorem 1 right-hand side: the bound on the average
// squared gradient norm over T rounds. It returns +Inf when the step-size
// condition λ₁ > 0 (Eq. 14) fails, i.e. the learning rate is too large for
// the bound to apply.
func Bound(p Params) float64 {
	lam := Derive(p)
	if lam.Lambda1 <= 0 {
		return math.Inf(1)
	}
	t, k, e := float64(p.T), float64(p.K), float64(p.E)
	term1 := p.F0MinusFStar / (lam.Lambda1 * p.Eta * t * k * e)
	term2 := lam.LambdaS * (p.GammaP / float64(p.S)) / (lam.Lambda1 * t * k * e)
	term3 := p.Gamma * p.GammaBig * (float64(lam.Lambda2*p.Sigma2) + float64(lam.Lambda3*p.Zeta2) + float64(lam.Lambda4*p.ZetaG2)) /
		(lam.Lambda1 * t)
	return term1 + term2 + term3
}

// FromSystem fills the structural factors of Params (γ, Γ, Γ_p, ζ_g proxy)
// from an actual grouping and sampling configuration, leaving the loss
// constants to the caller. The ζ_g² proxy is the data-weighted mean squared
// CoV of the groups — not the true heterogeneity constant (which is not
// computable; Sec. 4.3), but ordered the same way by construction of the
// CoV criterion.
func FromSystem(groups []*grouping.Group, p []float64, base Params) Params {
	out := base
	// γ: average over groups of 1 + CoV²(client sample counts).
	gsum := 0.0
	for _, g := range groups {
		gsum += g.Gamma()
	}
	if len(groups) > 0 {
		out.Gamma = gsum / float64(len(groups))
		sizes := 0
		for _, g := range groups {
			sizes += g.Size()
		}
		out.GroupSize = float64(sizes) / float64(len(groups))
	}
	// Γ: |G|²[1/|G|² + Var(n_g/n)].
	ngs := make([]float64, len(groups))
	total := 0.0
	for i, g := range groups {
		ngs[i] = float64(g.NumSamples())
		total += ngs[i]
	}
	if total > 0 {
		fr := make([]float64, len(ngs))
		for i, v := range ngs {
			fr[i] = v / total
		}
		gg := float64(len(groups))
		out.GammaBig = gg * gg * (1/(gg*gg) + stats.Variance(fr))
	}
	out.GammaP = sampling.GammaP(p)
	// ζ_g² proxy: data-weighted mean squared group CoV.
	if total > 0 {
		z := 0.0
		for _, g := range groups {
			c := g.CoV()
			z += float64(float64(g.NumSamples()) / total * c * c)
		}
		out.ZetaG2 = z
	}
	return out
}
