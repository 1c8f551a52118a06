package stats

import "math"

// Normalize returns counts scaled to sum to 1. An all-zero histogram maps to
// the uniform distribution, which is the natural neutral element for the
// divergence-based grouping baselines.
func Normalize(counts []float64) []float64 {
	out := make([]float64, len(counts))
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		if len(counts) == 0 {
			return out
		}
		u := 1 / float64(len(counts))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}

// KLDivergence returns D_KL(p || q) in nats for probability vectors p and q.
// Zero entries of q are smoothed with eps so the divergence stays finite,
// matching how SHARE's KLD grouping must behave on sparse client histograms.
func KLDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: KLDivergence length mismatch")
	}
	const eps = 1e-12
	d := 0.0
	for i := range p {
		if p[i] <= 0 {
			continue
		}
		qq := q[i]
		if qq < eps {
			qq = eps
		}
		d += float64(p[i] * math.Log(p[i]/qq))
	}
	if d < 0 {
		// Tiny negative values can appear from smoothing; clamp.
		return 0
	}
	return d
}

// L2Distance returns the Euclidean distance between vectors.
func L2Distance(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: L2Distance length mismatch")
	}
	d := 0.0
	for i := range p {
		diff := p[i] - q[i]
		d += float64(diff * diff)
	}
	return math.Sqrt(d)
}

// CosineSimilarity returns the cosine of the angle between vectors a and b.
// If either vector is zero the similarity is defined as 0, which is what the
// backdoor detector wants for degenerate updates.
func CosineSimilarity(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: CosineSimilarity length mismatch")
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	//lint:ignore float-eq a sum of squares is exactly zero iff the vector is all zeros
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
