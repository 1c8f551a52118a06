package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than one
// element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, d := range xs {
		d -= m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation sigma/mu of xs. If the mean is
// zero the CoV is undefined; we return +Inf for a non-degenerate slice and 0
// for an all-zero slice, which keeps grouping comparisons well ordered.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	sd := StdDev(xs)
	//lint:ignore float-eq the mean of nonnegative counts is exactly zero iff every count is zero
	if m == 0 {
		//lint:ignore float-eq a zero-mean slice has exactly zero stddev iff it is all zeros
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / m
}

// CoVOfCounts computes the grouping criterion of the paper (Eq. 27): the
// coefficient of variation of a label-count histogram. counts[j] is the
// number of samples with label j held by the group; a perfectly balanced
// group has CoV 0 and more skew yields larger values. An empty group (total
// count zero) returns +Inf so that it never looks attractive to the greedy
// grouping algorithm.
func CoVOfCounts(counts []float64) float64 {
	if len(counts) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return math.Inf(1)
	}
	m := float64(len(counts))
	mu := total / m
	ss := 0.0
	for _, c := range counts {
		d := c - mu
		ss += float64(d * d)
	}
	sigma := math.Sqrt(ss / m)
	return sigma / mu
}

// VarianceOfCounts returns the population variance of a label-count
// histogram. The paper (Sec. 5.1) argues this is a poor grouping criterion
// because it is sensitive to the total count scale; it is implemented here to
// support that ablation.
func VarianceOfCounts(counts []float64) float64 {
	if len(counts) == 0 {
		return math.Inf(1)
	}
	return Variance(counts)
}

// GammaFactor computes the paper's gamma (Eq. 11) for the per-client sample
// counts of one group: gamma = |g|^2 [ 1/|g|^2 + Var(n_i/n_g) ], which the
// paper shows equals 1 + CoV^2 of the client sample counts. Smaller is
// better for convergence.
func GammaFactor(clientCounts []float64) float64 {
	n := len(clientCounts)
	if n == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, c := range clientCounts {
		total += c
	}
	if total <= 0 {
		return math.Inf(1)
	}
	fracs := make([]float64, n)
	for i, c := range clientCounts {
		fracs[i] = c / total
	}
	g := float64(n)
	return g * g * (1/(g*g) + Variance(fracs))
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) of a non-negative
// allocation: 1 when perfectly equal, approaching 1/n when one participant
// takes everything. Used to measure client participation fairness — the
// trade-off the paper's future-work section flags for prioritized group
// sampling.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum, ss := 0.0, 0.0
	for _, x := range xs {
		sum += x
		ss += float64(x * x)
	}
	//lint:ignore float-eq a sum of squares is exactly zero iff every term is zero
	if ss == 0 {
		return 1 // nobody participated: trivially equal
	}
	return sum * sum / (float64(len(xs)) * ss)
}
