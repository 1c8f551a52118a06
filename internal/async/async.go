// Package async defines the aggregation semantics of a group round beyond
// the paper's bulk-synchronous Alg. 1 (ROADMAP item 5, FedBuff-style):
// client updates are folded into a group buffer as they "arrive", each
// weighted by a staleness discount w(τ) = 1/(1+τ)^α, with arrival order
// driven by a seeded logical clock over simulated link delays, so any run
// replays bit-identically from (seed, config).
//
// The package owns the mode vocabulary, the staleness function and the delay
// model (the logical clock's tick source). The group-round state machine
// that runs these semantics lives in internal/core (async_engine.go) and is
// the only one there: the modes are its flush triggers — an arrival count
// (Sync, the full buffer, and Buffered) or a deadline (SemiSync). What
// happened in a run is counted, not logged: the fel_async_* counters and
// histograms of the run's metrics registry.
//
// Determinism contract: every delay draw comes from a dedicated RNG
// reseeded with DispatchSeed(seed, round, group, client, k) — a pure
// function of the dispatch coordinates, never of scheduling — and arrival
// ties break on dispatch order. Two runs of the same (System, Config)
// therefore fold the same updates in the same order to Float64bits-identical
// weights at any MaxParallel, and a run resumed from a checkpoint continues
// exactly as the uninterrupted run would have.
package async

import (
	"fmt"
	"math"
)

// Mode selects the aggregation semantics of a training run.
type Mode int

// The three aggregation modes compared by the async-vs-sync experiment.
const (
	// Sync is the paper's bulk-synchronous Alg. 1: every group round waits
	// for all member updates before aggregating — the buffer at its full
	// size, whatever BufferFrac says. Nothing depends on arrival order, so
	// no staleness, fold or flush is observed.
	Sync Mode = iota
	// Buffered is FedBuff-style buffered asynchrony: the group model is
	// re-aggregated whenever BufferFrac of the membership has checked in,
	// with stale updates discounted by w(τ).
	Buffered
	// SemiSync runs fixed per-round deadlines: updates arriving before the
	// deadline fold at the deadline, late updates carry over into later
	// rounds with growing staleness, and updates still in flight after the
	// final deadline are discarded.
	SemiSync
)

// String names the mode as experiment output spells it.
func (m Mode) String() string {
	switch m {
	case Sync:
		return "sync"
	case Buffered:
		return "async"
	case SemiSync:
		return "semisync"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config bundles the asynchrony knobs of one training run. The zero value
// is the synchronous paper configuration.
type Config struct {
	// Mode selects the aggregation semantics.
	Mode Mode
	// Alpha is the staleness exponent: folded updates are weighted by
	// n_i · 1/(1+τ)^α where τ counts the model versions published since
	// the update was dispatched. 0 disables the discount.
	Alpha float64
	// BufferFrac sets the Buffered flush threshold as a fraction of the
	// group size: the buffer folds once ceil(BufferFrac·n) updates have
	// arrived since the last flush (dropped updates count as arrivals —
	// the loss is observed). 0 means 1.0, the full buffer: the synchronous
	// group round, plus the fel_async_* staleness, fold and flush
	// observations.
	BufferFrac float64
	// DeadlineTicks is the SemiSync per-round deadline on the logical
	// clock. Must be positive in SemiSync mode.
	DeadlineTicks int64
	// Delays is the logical clock's tick source: every dispatched update's
	// arrival time is now + Delays.Draw(...). A zero model makes all
	// delays zero (arrival order = dispatch order).
	Delays DelayModel
}

// Validate rejects configurations the executor would misbehave on.
func (c Config) Validate() error {
	switch {
	case c.Mode < Sync || c.Mode > SemiSync:
		return fmt.Errorf("async: unknown mode %d", int(c.Mode))
	case c.Alpha < 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0):
		return fmt.Errorf("async: Alpha must be finite and >= 0, got %v", c.Alpha)
	case !(c.BufferFrac >= 0 && c.BufferFrac <= 1):
		return fmt.Errorf("async: BufferFrac must be in [0,1], got %v", c.BufferFrac)
	case c.Mode == SemiSync && c.DeadlineTicks <= 0:
		return fmt.Errorf("async: SemiSync needs DeadlineTicks > 0, got %d", c.DeadlineTicks)
	}
	return c.Delays.Validate()
}

// FlushThreshold returns the Buffered arrival count that triggers a flush
// for a group of n clients: ceil(BufferFrac·n), clamped to [1, n].
func (c Config) FlushThreshold(n int) int {
	frac := c.BufferFrac
	if frac <= 0 {
		frac = 1
	}
	b := int(math.Ceil(frac * float64(n)))
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b
}

// StalenessWeight is the FedBuff discount w(τ) = 1/(1+τ)^α. τ ≤ 0 (a fresh
// update) and α = 0 both yield exactly 1.0, which is what makes a
// full-buffer flush the plain n_i-weighted average of Alg. 1 line 14.
func StalenessWeight(tau int, alpha float64) float64 {
	//lint:ignore float-eq α=0 must disable the discount exactly — the sync-equivalence gate depends on w being the literal 1.0
	if tau <= 0 || alpha == 0 {
		return 1
	}
	return math.Pow(1+float64(tau), -alpha)
}
