package hfl

import (
	"fmt"
	"math"
)

// Link models a network link with fixed latency (seconds) and bandwidth
// (bytes per second).
type Link struct {
	Latency   float64
	Bandwidth float64
}

// Validate rejects unusable link parameters: bandwidth must be positive and
// latency non-negative. Callers should validate once at setup (see
// Topology.Validate) rather than discover a bad link mid-run.
func (l Link) Validate() error {
	if l.Bandwidth <= 0 {
		return fmt.Errorf("link bandwidth must be positive (got %g)", l.Bandwidth)
	}
	if l.Latency < 0 {
		return fmt.Errorf("link latency must be non-negative (got %g)", l.Latency)
	}
	return nil
}

// TransferTime returns the time to move the given payload across the link.
// The link is assumed validated; an unusable link (non-positive bandwidth)
// yields +Inf rather than a panic, so a missed Validate surfaces as an
// absurd wall-clock figure instead of taking the process down.
func (l Link) TransferTime(bytes int) float64 {
	if l.Bandwidth <= 0 {
		return math.Inf(1)
	}
	return l.Latency + float64(bytes)/l.Bandwidth
}

// Topology is the two-tier link structure of the paper's Fig. 1: clients
// reach their edge server over a fast local link; edges reach the cloud
// over a slower wide-area link.
type Topology struct {
	ClientEdge Link
	EdgeCloud  Link
}

// Validate rejects a topology with unusable links; RunGlobalRound runs it
// once per round.
func (t Topology) Validate() error {
	if err := t.ClientEdge.Validate(); err != nil {
		return fmt.Errorf("client–edge %w", err)
	}
	if err := t.EdgeCloud.Validate(); err != nil {
		return fmt.Errorf("edge–cloud %w", err)
	}
	return nil
}

// DefaultTopology returns a topology with edge-computing-typical numbers:
// ~5 ms / 25 MB/s client–edge, ~40 ms / 5 MB/s edge–cloud.
func DefaultTopology() Topology {
	return Topology{
		ClientEdge: Link{Latency: 0.005, Bandwidth: 25e6},
		EdgeCloud:  Link{Latency: 0.040, Bandwidth: 5e6},
	}
}
