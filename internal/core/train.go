package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// Config parameterizes one Group-FEL training run (Alg. 1 plus the cost
// model and the paper's sampling/weighting options).
type Config struct {
	// GlobalRounds (T), GroupRounds (K), LocalEpochs (E).
	GlobalRounds, GroupRounds, LocalEpochs int
	// BatchSize for local SGD; <= 0 means full-batch.
	BatchSize int
	// LR is the learning rate η.
	LR float64
	// SampleGroups is S = |S_t|, the groups drawn per global round.
	SampleGroups int
	// Grouping forms the groups at every edge (Alg. 1 lines 2–3).
	Grouping grouping.Algorithm
	// Sampling picks the probability scheme (Sec. 6.1).
	Sampling sampling.Method
	// Weights picks the aggregation weighting (Sec. 6.2).
	Weights sampling.WeightScheme
	// Local is the client update rule; nil means plain SGD.
	Local LocalUpdater
	// Seed drives all randomness in the run.
	Seed uint64
	// CostProfile and CostOps configure the Eq. 5 accountant.
	CostProfile cost.Profile
	CostOps     cost.OpSet
	// CostBudget stops training once the accumulated cost exceeds it
	// (0 = no budget, run all GlobalRounds).
	CostBudget float64
	// EvalEvery evaluates on the test set every n rounds (0 or 1 = every
	// round). The final round is always evaluated.
	EvalEvery int
	// RegroupEvery reruns group formation every n global rounds (0 =
	// never), the paper's Sec. 6.1 suggestion for reusing high-CoV data.
	RegroupEvery int
	// MaxParallel bounds how many clients train at once (0 = one worker per
	// effective CPU, min(GOMAXPROCS, NumCPU); 1 = serial training on the
	// calling goroutine). It is the only parallelism knob: GEMMs never fan
	// out, and evaluation always uses the effective CPU count. Results are
	// bit-identical at every value.
	MaxParallel int
	// InitParams, when non-nil, seeds the global model with these
	// parameters instead of a fresh initialization (used by two-phase
	// methods like FedCLAR).
	InitParams []float64
	// DropoutProb simulates unreliable edge clients: after local training,
	// each client's update is lost with this probability and the group
	// aggregation renormalizes over the survivors (the behaviour the
	// secure-aggregation substrate's dropout recovery enables). Dropped
	// clients still pay their training cost — work done is work paid for.
	DropoutProb float64
	// NewCompressor, when non-nil, compresses every client's update delta
	// before group aggregation (one stateful compressor per client, so
	// error-feedback schemes work). The decoded delta is applied to the
	// group model; Result.UplinkBytes records the wire size saved.
	NewCompressor func() compress.Compressor
	// Async selects the aggregation semantics (sync, buffered-async, or
	// semi-sync) plus the staleness discount and the logical-clock delay
	// model driving arrival order. The zero value is the paper's
	// bulk-synchronous Alg. 1 — the same group-round machine at a full
	// buffer, so with a delay model configured a sync run's rounds cost the
	// barrier's ticks on the same clock and draws (Result.LogicalTicks).
	Async async.Config
	// AdaptiveSampling, when non-nil, re-estimates the group selection
	// probabilities online from an EWMA of observed group update norms
	// (Chen & Vikalo-style heterogeneity-guided sampling), falling back to
	// the configured Sampling method's CoV-derived p_g until the first
	// observations land. Aggregation weights follow the adapted
	// probabilities, so the global estimator stays consistent.
	AdaptiveSampling *sampling.AdaptiveConfig
	// Metrics, when non-nil, receives the run's observability stream:
	// phase spans (local train, group/global aggregation, eval), per-group
	// selection counters for auditing the sampling distribution against
	// fel_core_group_prob, and round/dropout totals. All registry methods
	// are nil-safe, so leaving this unset costs nothing.
	Metrics *metrics.Registry
}

// RoundRecord captures the state after one global round.
type RoundRecord struct {
	Round int
	// Accuracy and Loss on the held-out test set (NaN when skipped).
	Accuracy, Loss float64
	// Cost is the cumulative Eq. 5 cost after this round.
	Cost float64
	// AvgSelectedCoV is the mean label CoV of the sampled groups.
	AvgSelectedCoV float64
}

// Result is the outcome of a training run.
type Result struct {
	Records []RoundRecord
	// Groups and Probs are the (final) formation and sampling vector.
	Groups []*grouping.Group
	Probs  []float64
	// FinalAccuracy and FinalLoss are measured after the last round.
	FinalAccuracy, FinalLoss float64
	// TotalCost is the Eq. 5 total.
	TotalCost float64
	// RoundsRun counts executed global rounds (may be fewer than T under a
	// cost budget).
	RoundsRun int
	// Dropouts counts client updates lost to the simulated unreliability.
	Dropouts int
	// Participation maps client ID to the number of global rounds the
	// client trained in (fairness accounting; see FairnessIndex).
	Participation map[int]int
	// UplinkBytes totals the client→edge update payload; with a compressor
	// configured it reflects the compressed wire size.
	UplinkBytes int64
	// Params is the final global parameter vector.
	Params []float64
	// LogicalTicks totals the run's time on the logical clock: per global
	// round, the slowest selected group's ticks (in a sync run each group
	// round costs its slowest member's delay — the barrier — on the draws
	// the async modes make). 0 without a delay model.
	LogicalTicks int64
	// Carryovers counts semi-sync deadline misses (one per update per
	// deadline it overran); LateDrops counts updates discarded after the
	// final deadline of their group's schedule.
	Carryovers, LateDrops int
}

// Train runs Algorithm 1 on the system. Given equal (System, Config) inputs
// the run is bit-for-bit reproducible at any parallelism; the deterministic
// annotation makes the lint engine prove no wall-clock read is reachable.
//
// Train is a thin wrapper over Trainer — the stateful, stepwise form that
// felserve checkpoints and resumes — so the two can never drift apart.
//
//lint:deterministic
func Train(sys *System, cfg Config) *Result {
	tr := NewTrainer(sys, cfg)
	for !tr.Done() {
		tr.Step()
	}
	return tr.Finish()
}

// compressorPool hands out one stateful compressor per client (error
// feedback needs persistent residuals). Safe for concurrent groups.
type compressorPool struct {
	mu       sync.Mutex
	factory  func() compress.Compressor
	byClient map[int]compress.Compressor
}

func (p *compressorPool) forClient(id int) compress.Compressor {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.byClient[id]
	if !ok {
		c = p.factory()
		p.byClient[id] = c
	}
	return c
}

// validate rejects a configuration no run can start from. With a pinned
// formation Grouping is never read, with fixed selections SampleGroups. The
// messages carry no package tag: NewTrainer panics with "fel: " in front,
// fednode returns "fednode: ".
func validate(sys *System, cfg Config, pinned, fixed bool) error {
	switch {
	case sys == nil:
		return errors.New("nil system")
	case cfg.GlobalRounds <= 0 || cfg.GroupRounds <= 0 || cfg.LocalEpochs <= 0:
		return errors.New("T, K, E must be positive")
	case !(cfg.LR > 0) || math.IsInf(cfg.LR, 1):
		return fmt.Errorf("LR must be positive and finite, got %v", cfg.LR)
	case math.IsNaN(cfg.DropoutProb):
		return errors.New("DropoutProb is NaN")
	case !fixed && cfg.SampleGroups <= 0:
		return errors.New("SampleGroups must be positive")
	case !pinned && cfg.Grouping == nil:
		return errors.New("Grouping algorithm is required")
	case cfg.CostProfile.Name == "":
		return fmt.Errorf("CostProfile is required (got %+v)", cfg.CostProfile)
	case cfg.Async.Mode != async.Sync && cfg.NewCompressor != nil:
		// The compressed-delta uplink is defined for the full buffer only:
		// nothing says what a stale error-feedback residual should mean.
		return errors.New("NewCompressor requires synchronous aggregation")
	}
	if cfg.AdaptiveSampling != nil {
		if err := cfg.AdaptiveSampling.Validate(); err != nil {
			return err
		}
	}
	return cfg.Async.Validate()
}

// FairnessIndex returns Jain's fairness index over all clients'
// participation counts (clients that never trained count as zero). The
// paper's future-work section flags participation fairness as the cost of
// prioritized sampling; this makes it measurable.
func (r *Result) FairnessIndex(sys *System) float64 {
	counts := make([]float64, len(sys.Clients))
	for i, c := range sys.Clients {
		counts[i] = float64(r.Participation[c.ID])
	}
	return stats.JainIndex(counts)
}

// UniqueParticipants returns how many distinct clients ever trained.
func (r *Result) UniqueParticipants() int {
	n := 0
	for _, c := range r.Participation {
		if c > 0 {
			n++
		}
	}
	return n
}
