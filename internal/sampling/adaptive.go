package sampling

import (
	"fmt"
	"math"
)

// Adaptive is the heterogeneity-guided online re-estimator of the group
// selection probabilities (Chen & Vikalo; Fraboni et al. — PAPERS.md): an
// EWMA of each group's observed update norm replaces the static CoV-derived
// utility as evidence accumulates. Round 0 — before anything is observed —
// returns the paper's base vector exactly, so an adaptive run and a static
// run diverge only once data justifies it. Unseen groups are imputed the
// mean observed norm scaled by their base-probability share, so fresh
// groups are neither starved nor overfed while they wait for their first
// selection.
//
// The estimator is fully deterministic (no internal RNG — the Sampler
// consumes the probabilities it emits) and checkpointable via
// Export/Restore, which is what keeps buffered-async kill-and-resume
// bit-identical under adaptive sampling.
type Adaptive struct {
	cfg   AdaptiveConfig
	norms []float64
	seen  []bool
	mixed []float64
}

// AdaptiveConfig parameterizes the online estimator.
type AdaptiveConfig struct {
	// Beta is the EWMA gain on new observations:
	// u_g ← (1-Beta)·u_g + Beta·‖Δ_g‖. The first observation seeds the
	// average directly.
	Beta float64
	// Explore mixes a uniform floor into the adapted distribution:
	// p = (1-Explore)·normalize(u) + Explore·uniform, keeping every group
	// selectable no matter how small its observed norms.
	Explore float64
}

// Validate rejects gains and floors outside their stable ranges.
func (c AdaptiveConfig) Validate() error {
	switch {
	case c.Beta <= 0 || c.Beta > 1 || math.IsNaN(c.Beta):
		return fmt.Errorf("sampling: adaptive Beta must be in (0,1], got %v", c.Beta)
	case c.Explore < 0 || c.Explore >= 1 || math.IsNaN(c.Explore):
		return fmt.Errorf("sampling: adaptive Explore must be in [0,1), got %v", c.Explore)
	}
	return nil
}

// AdaptiveState is the estimator's checkpointable state: the per-group
// EWMA values and their seen flags, aligned with the group list.
type AdaptiveState struct {
	Norms []float64
	Seen  []bool
}

// NewAdaptive builds an estimator for n groups with no observations yet.
func NewAdaptive(cfg AdaptiveConfig, n int) *Adaptive {
	a := &Adaptive{cfg: cfg}
	a.Reset(n)
	return a
}

// Reset discards all observations and resizes to n groups — regrouping
// invalidates the group identities the EWMAs are keyed by.
func (a *Adaptive) Reset(n int) {
	a.norms = make([]float64, n)
	a.seen = make([]bool, n)
	a.mixed = make([]float64, n)
}

// Observe folds one group's observed update norm into its EWMA. g indexes
// the current formation's group list.
func (a *Adaptive) Observe(g int, norm float64) {
	if g < 0 || g >= len(a.norms) {
		return
	}
	if !a.seen[g] {
		a.norms[g] = norm
		a.seen[g] = true
		return
	}
	a.norms[g] = float64((1-a.cfg.Beta)*a.norms[g]) + float64(a.cfg.Beta*norm)
}

// Mix returns the selection probabilities for the next round: the base
// (CoV-derived) vector verbatim until the first observation, then the
// normalized utility estimates with the exploration floor. The returned
// slice is reused across calls; callers must not retain it.
func (a *Adaptive) Mix(base []float64) []float64 {
	n := len(base)
	if n != len(a.norms) {
		// Formation changed without a Reset — refuse to guess.
		panic(fmt.Sprintf("sampling: adaptive sized for %d groups, formation has %d", len(a.norms), n))
	}
	anySeen := false
	seenSum, seenCount := 0.0, 0
	baseSum := 0.0
	for g := 0; g < n; g++ {
		baseSum += base[g]
		if a.seen[g] {
			anySeen = true
			seenSum += a.norms[g]
			seenCount++
		}
	}
	if !anySeen {
		return base
	}
	meanSeen := seenSum / float64(seenCount)
	meanBase := baseSum / float64(n)
	total := 0.0
	for g := 0; g < n; g++ {
		u := a.norms[g]
		if !a.seen[g] {
			// Impute: the mean observed utility, scaled by the group's
			// base-probability share, so the static prior still orders the
			// unexplored groups.
			u = meanSeen * base[g] / meanBase
		}
		a.mixed[g] = u
		total += u
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return base
	}
	uniform := 1 / float64(n)
	for g := 0; g < n; g++ {
		a.mixed[g] = float64((1-a.cfg.Explore)*(a.mixed[g]/total)) + float64(a.cfg.Explore*uniform)
	}
	return a.mixed
}

// Export snapshots the estimator state for a checkpoint.
func (a *Adaptive) Export() AdaptiveState {
	return AdaptiveState{
		Norms: append([]float64(nil), a.norms...),
		Seen:  append([]bool(nil), a.seen...),
	}
}

// Restore replaces the estimator state from a checkpoint.
func (a *Adaptive) Restore(st AdaptiveState) error {
	if len(st.Norms) != len(st.Seen) {
		return fmt.Errorf("sampling: adaptive state shape %d norms / %d seen", len(st.Norms), len(st.Seen))
	}
	a.norms = append([]float64(nil), st.Norms...)
	a.seen = append([]bool(nil), st.Seen...)
	a.mixed = make([]float64, len(st.Norms))
	return nil
}
