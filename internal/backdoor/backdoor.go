// Package backdoor implements the backdoor (model poisoning) detection
// group operation whose cost the paper measures in Fig. 8: a FLAME-style
// filter that clusters client updates by pairwise cosine similarity, flags
// the minority that disagrees with the group consensus, and clips the
// surviving updates to the median norm to bound residual poison.
//
// The pairwise similarity matrix is Θ(s²·d) work for a group of s clients —
// the empirical grounding for the quadratic O_g(|g|) overhead model.
package backdoor

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// Config tunes the detector.
type Config struct {
	// MADFactor flags a client when its consensus score falls more than
	// MADFactor median-absolute-deviations below the median score.
	MADFactor float64
	// MinFlagGap is the minimum absolute score shortfall before anything is
	// flagged; it prevents false positives when all updates are essentially
	// identical (MAD ≈ 0).
	MinFlagGap float64
	// ClipToMedianNorm additionally rescales accepted updates to at most
	// the median update norm.
	ClipToMedianNorm bool
}

// DefaultConfig mirrors FLAME's posture: cluster on cosine similarity, clip
// to the median norm.
func DefaultConfig() Config {
	return Config{MADFactor: 3, MinFlagGap: 0.05, ClipToMedianNorm: true}
}

// Result reports the detector's decision.
type Result struct {
	// Accepted and Flagged index into the input update slice.
	Accepted, Flagged []int
	// Scores holds each client's consensus score (median cosine similarity
	// to the other updates).
	Scores []float64
	// ClipNorm is the applied norm bound (0 when clipping was disabled).
	ClipNorm float64
	// PairwiseOps counts the cosine evaluations performed, for the cost
	// harness.
	PairwiseOps int
}

// Detect runs the filter over the group's update vectors. Updates flagged
// as anomalous are excluded from Accepted; when clipping is enabled the
// accepted updates are rescaled in place.
func Detect(updates [][]float64, cfg Config) Result {
	n := len(updates)
	res := Result{Scores: make([]float64, n)}
	if n == 0 {
		return res
	}
	if n == 1 {
		res.Accepted = []int{0}
		res.Scores[0] = 1
		return res
	}

	// Pairwise cosine similarity matrix (symmetric, Θ(n²·d)).
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := stats.CosineSimilarity(updates[i], updates[j])
			sim[i][j], sim[j][i] = c, c
			res.PairwiseOps++
		}
	}

	// Consensus score: median similarity to the other members.
	for i := 0; i < n; i++ {
		others := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				others = append(others, sim[i][j])
			}
		}
		res.Scores[i] = median(others)
	}

	med := median(append([]float64(nil), res.Scores...))
	mad := medianAbsDev(res.Scores, med)
	threshold := med - float64(cfg.MADFactor*mad) - cfg.MinFlagGap

	for i := 0; i < n; i++ {
		if res.Scores[i] < threshold {
			res.Flagged = append(res.Flagged, i)
		} else {
			res.Accepted = append(res.Accepted, i)
		}
	}
	// Never flag a majority: if the "anomalous" side is at least half the
	// group, consensus is meaningless and everything is accepted.
	if len(res.Flagged)*2 >= n {
		res.Accepted = res.Accepted[:0]
		for i := 0; i < n; i++ {
			res.Accepted = append(res.Accepted, i)
		}
		res.Flagged = nil
	}

	if cfg.ClipToMedianNorm && len(res.Accepted) > 0 {
		norms := make([]float64, 0, len(res.Accepted))
		for _, i := range res.Accepted {
			norms = append(norms, l2(updates[i]))
		}
		bound := median(norms)
		res.ClipNorm = bound
		for _, i := range res.Accepted {
			if nrm := l2(updates[i]); nrm > bound && nrm > 0 {
				scale := bound / nrm
				for d := range updates[i] {
					updates[i][d] *= scale
				}
			}
		}
	}
	return res
}

func l2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return 0.5 * (xs[n/2-1] + xs[n/2])
}

func medianAbsDev(xs []float64, med float64) float64 {
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return median(devs)
}
