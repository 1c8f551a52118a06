package async

import (
	"fmt"

	"repro/internal/stats"
)

// DelayModel is the logical clock's tick source. Each dispatched client
// update takes BaseTicks plus a jitter draw in [0, JitterTicks], and with
// probability StragglerProb the whole delay is multiplied by
// StragglerFactor — the "straggler storm" regime where any dispatch can
// stall. All draws are integer ticks so replay never depends on float
// rounding.
type DelayModel struct {
	// BaseTicks is the floor latency of every update. Must be >= 1 when
	// the model is enabled so the logical clock always advances.
	BaseTicks int64
	// JitterTicks bounds the uniform jitter added on top of BaseTicks.
	JitterTicks int64
	// StragglerProb is the per-dispatch probability that the delay is
	// multiplied by StragglerFactor.
	StragglerProb float64
	// StragglerFactor is the slowdown multiplier for straggler draws.
	StragglerFactor int64
}

// Enabled reports whether the model produces nonzero delays.
func (d DelayModel) Enabled() bool {
	return d.BaseTicks > 0 || d.JitterTicks > 0
}

// Validate rejects models the clock cannot draw from deterministically.
func (d DelayModel) Validate() error {
	switch {
	case d.BaseTicks < 0 || d.JitterTicks < 0:
		return fmt.Errorf("async: delay ticks must be >= 0, got base=%d jitter=%d", d.BaseTicks, d.JitterTicks)
	case !(d.StragglerProb >= 0 && d.StragglerProb <= 1):
		return fmt.Errorf("async: StragglerProb must be in [0,1], got %v", d.StragglerProb)
	case d.StragglerProb > 0 && d.StragglerFactor < 1:
		return fmt.Errorf("async: StragglerFactor must be >= 1 when StragglerProb > 0, got %d", d.StragglerFactor)
	case d.Enabled() && d.BaseTicks < 1:
		return fmt.Errorf("async: enabled delay model needs BaseTicks >= 1, got %d", d.BaseTicks)
	}
	return nil
}

// DispatchSeed derives the RNG seed for one dispatch's delay draw. It is a
// pure function of the dispatch coordinates (global round, group, client,
// per-group dispatch ordinal k), so the draw is independent of scheduling,
// worker count, and arrival interleaving — the root of the replay
// contract. The multipliers are the same splitmix64/xxhash odd constants
// the engine uses for its per-client training streams, chosen here with
// distinct tags so delay draws never collide with training draws.
func DispatchSeed(seed uint64, round, group, client, k int) uint64 {
	s := seed ^ 0xa51c ^ (uint64(round+1) * 0x9e3779b97f4a7c15)
	s ^= uint64(group+1) * 0xc2b2ae3d27d4eb4f
	s ^= uint64(client+1) * 0xff51afd7ed558ccd
	s ^= uint64(k+1) * 0xc4ceb9fe1a85ec53
	return s
}

// Draw samples the delay for one dispatch. The draw order inside the
// stream is fixed (jitter first, then the straggler coin) so the model can
// grow without perturbing replays of existing fields.
func (d DelayModel) Draw(rng *stats.RNG) int64 {
	if !d.Enabled() {
		return 0
	}
	delay := d.BaseTicks
	if d.JitterTicks > 0 {
		delay += int64(rng.IntN(int(d.JitterTicks) + 1))
	}
	if d.StragglerProb > 0 && rng.Float64() < d.StragglerProb {
		delay *= d.StragglerFactor
	}
	if delay < 1 {
		delay = 1
	}
	return delay
}

// StragglerStorm is the delay preset matching the faultnet
// straggler-storm chaos plan: every dispatch has a 20% chance of running
// 20x slow, so a bulk-synchronous round almost surely waits for at least
// one straggler while buffered chains only pay for their own draws.
func StragglerStorm() DelayModel {
	return DelayModel{BaseTicks: 10, JitterTicks: 5, StragglerProb: 0.2, StragglerFactor: 20}
}

// SlowLinks is the delay preset for uniformly degraded links: high
// variance, no catastrophic tail.
func SlowLinks() DelayModel {
	return DelayModel{BaseTicks: 20, JitterTicks: 30}
}
