package groupfel

import (
	"repro/internal/backdoor"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/secagg"
	"repro/internal/theory"
)

// Cost model (Sec. 3.2, Eq. 5).
type (
	// CostProfile holds per-task cost coefficients.
	CostProfile = cost.Profile
	// CostOps selects the group operations charged per aggregation.
	CostOps = cost.OpSet
	// CostAccountant accumulates Eq. 5 across a run.
	CostAccountant = cost.Accountant
)

// CIFARProfile returns the CIFAR cost coefficients (Fig. 8 calibration).
func CIFARProfile() CostProfile { return cost.CIFARProfile() }

// SCProfile returns the SpeechCommands cost coefficients.
func SCProfile() CostProfile { return cost.SCProfile() }

// DefaultCostOps enables secure aggregation plus backdoor detection.
func DefaultCostOps() CostOps { return cost.DefaultOps() }

// NewCostAccountant creates an Eq. 5 accountant.
func NewCostAccountant(p CostProfile, ops CostOps) *CostAccountant {
	return cost.NewAccountant(p, ops)
}

// Secure aggregation substrate (the group operation behind the quadratic
// overhead; Bonawitz-style pairwise masking with Shamir dropout recovery).
type (
	// SecAggSession runs one secure aggregation among a group.
	SecAggSession = secagg.Session
	// SecAggQuantizer maps float updates to fixed-point words of Z₂⁶⁴.
	SecAggQuantizer = secagg.Quantizer
)

// NewSecAggSession prepares a secure aggregation of n clients over
// dim-dimensional updates with Shamir threshold t.
func NewSecAggSession(n, dim, t int, seed uint64, q SecAggQuantizer) *SecAggSession {
	return secagg.NewSession(n, dim, t, seed, q)
}

// DefaultQuantizer returns the standard fixed-point quantizer.
func DefaultQuantizer() SecAggQuantizer { return secagg.DefaultQuantizer() }

// Backdoor detection substrate (FLAME-style cosine clustering + norm clip).
type (
	// BackdoorConfig tunes the detector.
	BackdoorConfig = backdoor.Config
	// BackdoorResult reports accepted/flagged updates.
	BackdoorResult = backdoor.Result
)

// DetectBackdoors filters a group's update vectors.
func DetectBackdoors(updates [][]float64, cfg BackdoorConfig) BackdoorResult {
	return backdoor.Detect(updates, cfg)
}

// DefaultBackdoorConfig mirrors FLAME's posture.
func DefaultBackdoorConfig() BackdoorConfig { return backdoor.DefaultConfig() }

// Convergence bound (Theorem 1).
type (
	// TheoryParams collects the constants of Theorem 1.
	TheoryParams = theory.Params
)

// ConvergenceBound evaluates the Theorem 1 right-hand side.
func ConvergenceBound(p TheoryParams) float64 { return theory.Bound(p) }

// TheoryFromSystem fills the structural factors (γ, Γ, Γ_p, ζ_g proxy)
// from a concrete grouping and sampling vector.
func TheoryFromSystem(groups []*Group, probs []float64, base TheoryParams) TheoryParams {
	return theory.FromSystem(groups, probs, base)
}

// Update compression (the communication-side cost lever of Sec. 2.3).
type (
	// Compressor encodes client update deltas.
	Compressor = compress.Compressor
	// Compressed is an encoded update with a wire size.
	Compressed = compress.Compressed
)

// NewTopKCompressor keeps the k largest-magnitude coordinates with error
// feedback.
func NewTopKCompressor(k int) Compressor { return compress.NewTopK(k) }

// NewUniformCompressor is a QSGD-style b-bit stochastic quantizer.
func NewUniformCompressor(bits int, seed uint64) Compressor { return compress.NewUniform(bits, seed) }
