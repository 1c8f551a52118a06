// Package sampling implements the group sampling half of the paper's core
// contribution (Sec. 6): CoV-prioritized sampling probabilities (Eq. 34 with
// w(x) ∈ {x, x², e^{x²}}), weighted sampling without replacement, and the
// three aggregation weight schemes — biased (Alg. 1 line 15), unbiased with
// the 1/(p_g·S) correction (Eq. 4), and the stabilized normalization that
// reconciles the two (Eq. 35).
package sampling

import (
	"fmt"
	"math"

	"repro/internal/grouping"
	"repro/internal/stats"
)

// Method identifies a sampling probability scheme.
type Method int

// Sampling methods from the paper's Sec. 6.1 (plus uniform Random).
const (
	// Random samples groups uniformly.
	Random Method = iota
	// RCoV weights groups by w(x)=x of the reciprocal CoV.
	RCoV
	// SRCoV weights by w(x)=x² — a stronger CoV emphasis.
	SRCoV
	// ESRCoV weights by w(x)=e^{x²} — near top-k selection of the
	// best-CoV groups; the paper's default for Group-FEL.
	ESRCoV
)

// String returns the method name used in experiment output.
func (m Method) String() string {
	switch m {
	case Random:
		return "Random"
	case RCoV:
		return "RCoV"
	case SRCoV:
		return "SRCoV"
	case ESRCoV:
		return "ESRCoV"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Valid reports whether m is one of the four methods; Probabilities panics
// on any other.
func (m Method) Valid() bool { return m >= Random && m <= ESRCoV }

// covFloor keeps 1/CoV finite for perfectly balanced groups. The resulting
// cap on the reciprocal (1e3) is far above any realistic separation between
// groups, so the prioritization order is unaffected.
const covFloor = 1e-3

// Probabilities computes the sampling probability vector p over groups
// (Eq. 34): p_g = w(1/CoV(g)) / Σ w(1/CoV(g)). ESRCoV is evaluated in
// log-space so extreme reciprocals cannot overflow. The returned vector
// sums to 1.
func Probabilities(groups []*grouping.Group, m Method) []float64 {
	if len(groups) == 0 {
		return nil
	}
	p := make([]float64, len(groups))
	switch m {
	case Random:
		u := 1 / float64(len(groups))
		for i := range p {
			p[i] = u
		}
		return p
	case RCoV, SRCoV:
		sum := 0.0
		for i, g := range groups {
			x := 1 / math.Max(g.CoV(), covFloor)
			if m == SRCoV {
				x *= x
			}
			p[i] = x
			sum += x
		}
		for i := range p {
			p[i] /= sum
		}
		return p
	case ESRCoV:
		// log w = x²; normalize via the max exponent to avoid overflow.
		logw := make([]float64, len(groups))
		maxLog := math.Inf(-1)
		for i, g := range groups {
			x := 1 / math.Max(g.CoV(), covFloor)
			logw[i] = x * x
			if logw[i] > maxLog {
				maxLog = logw[i]
			}
		}
		sum := 0.0
		for i := range p {
			p[i] = math.Exp(logw[i] - maxLog)
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		return p
	}
	panic(fmt.Sprintf("sampling: unknown method %d", int(m)))
}

// Sample draws s distinct group indices without replacement, each draw
// proportional to the remaining probability mass. When the groups with
// positive probability run out before s are drawn, the rest are filled
// uniformly from the unchosen zero-probability groups, which are never drawn
// otherwise. It panics only when s ≤ 0 or s > len(p).
//
// Each call allocates O(len(p)) scratch; round loops that sample every
// global round should hold a Sampler instead, whose scratch persists across
// calls.
func Sample(rng *stats.RNG, p []float64, s int) []int {
	var sp Sampler
	return sp.Sample(rng, p, s)
}

// Sampler is the reusable-scratch form of Sample. The zero value is ready
// to use; after the first call, subsequent calls over populations of the
// same size allocate nothing, which keeps a training round's memory
// independent of the group count (a million-client population can carry
// hundreds of thousands of groups). Not safe for concurrent use.
type Sampler struct {
	w   []float64
	out []int
}

// Sample is identical to the package-level Sample — same draw sequence from
// rng, same result — but the returned slice aliases the Sampler's scratch
// and is only valid until the next call.
func (sp *Sampler) Sample(rng *stats.RNG, p []float64, s int) []int {
	if s <= 0 {
		panic("sampling: sample size must be positive")
	}
	if s > len(p) {
		panic(fmt.Sprintf("sampling: cannot draw %d from %d groups", s, len(p)))
	}
	if cap(sp.w) < len(p) {
		sp.w = make([]float64, len(p))
	}
	w := sp.w[:len(p)]
	copy(w, p)
	if cap(sp.out) < s {
		sp.out = make([]int, 0, s)
	}
	out := sp.out[:0]
	for len(out) < s {
		total := 0.0
		for _, v := range w {
			total += v
		}
		if total <= 0 {
			// All remaining mass is zero: fill uniformly from the unchosen.
			for i := range w {
				//lint:ignore float-eq already-drawn groups are zeroed with an exact 0 sentinel
				if w[i] == 0 && !contains(out, i) {
					w[i] = 1
				}
			}
			continue
		}
		i := rng.Categorical(w)
		out = append(out, i)
		w[i] = 0
	}
	sp.out = out
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// WeightScheme selects how selected group updates are combined at the cloud.
type WeightScheme int

// Aggregation weight schemes (paper Sec. 3.1 and 6.2).
const (
	// Biased weights each selected group by n_g/n_t over the selected set
	// (Alg. 1 line 15). Prioritized sampling then biases the model toward
	// well-distributed groups — the paper's deliberate default.
	Biased WeightScheme = iota
	// Unbiased applies the 1/(p_g·S) correction of Eq. 4. Numerically
	// unstable when some p_g are tiny.
	Unbiased
	// Stabilized normalizes the unbiased weights to sum to one (Eq. 35),
	// trading exact unbiasedness for stability.
	Stabilized
)

// String returns the scheme name.
func (w WeightScheme) String() string {
	switch w {
	case Biased:
		return "Biased"
	case Unbiased:
		return "Unbiased"
	case Stabilized:
		return "Stabilized"
	}
	return fmt.Sprintf("WeightScheme(%d)", int(w))
}

// Valid reports whether w is one of the three schemes; Weights panics on any
// other.
func (w WeightScheme) Valid() bool { return w >= Biased && w <= Stabilized }

// Weights computes the per-selected-group aggregation weights.
//   - selected: indices into groups of the sampled set S_t,
//   - p: the sampling probability vector over all groups,
//   - totalSamples: n, the global data count over all groups.
//
// For Biased the weights sum to 1 by construction; for Stabilized they are
// normalized to 1 (Eq. 35); for Unbiased they are returned raw and their sum
// is only 1 in expectation.
func Weights(groups []*grouping.Group, selected []int, p []float64, totalSamples int, scheme WeightScheme) []float64 {
	if totalSamples <= 0 {
		panic("sampling: totalSamples must be positive")
	}
	out := make([]float64, len(selected))
	switch scheme {
	case Biased:
		nt := 0
		for _, gi := range selected {
			nt += groups[gi].NumSamples()
		}
		if nt == 0 {
			panic("sampling: selected groups hold no data")
		}
		for i, gi := range selected {
			out[i] = float64(groups[gi].NumSamples()) / float64(nt)
		}
		return out
	case Unbiased, Stabilized:
		s := float64(len(selected))
		n := float64(totalSamples)
		sum := 0.0
		for i, gi := range selected {
			// A selected group can carry vanishing probability (ESRCoV
			// drives the worst groups' mass to ~0, and Sample backfills
			// zero-mass groups when s demands it). Flooring p_g keeps the
			// correction finite; this is exactly the instability Eq. 35's
			// normalization then absorbs.
			pg := math.Max(p[gi], 1e-12)
			out[i] = float64((1 / (pg * s)) * (float64(groups[gi].NumSamples()) / n))
			sum += out[i]
		}
		if scheme == Stabilized {
			if sum <= 0 {
				panic("sampling: stabilized weight sum is zero")
			}
			for i := range out {
				out[i] /= sum
			}
		}
		return out
	}
	panic(fmt.Sprintf("sampling: unknown scheme %d", int(scheme)))
}

// GammaP returns Γ_p = Σ_g 1/p_g (Eq. 12), the sampling-spread factor in
// the convergence bound. Larger values (more uneven sampling) slow
// convergence of the unbiased aggregation.
func GammaP(p []float64) float64 {
	s := 0.0
	for _, pg := range p {
		if pg <= 0 {
			return math.Inf(1)
		}
		s += 1 / pg
	}
	return s
}
