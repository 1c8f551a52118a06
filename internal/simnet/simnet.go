// Package simnet is the closed-form link model of the cloud–edge–client
// network underlying Group-FEL: links with latency and bandwidth, the
// two-tier topology of the paper's Fig. 1, and the round-time helpers the
// trainer and the experiment harness use to report wall-clock-style
// communication costs alongside the Eq. 5 compute cost model.
package simnet

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
		return fmt.Errorf("simnet: link bandwidth must be positive (got %g)", l.Bandwidth)
	}
	if l.Latency < 0 {
		return fmt.Errorf("simnet: link latency must be non-negative (got %g)", l.Latency)
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

// Validate rejects a topology with unusable links; run it once when a round
// or training run is configured.
func (t Topology) Validate() error {
	if err := t.ClientEdge.Validate(); err != nil {
		return fmt.Errorf("simnet: client–edge link: %w", err)
	}
	if err := t.EdgeCloud.Validate(); err != nil {
		return fmt.Errorf("simnet: edge–cloud link: %w", err)
	}
	return nil
}

// Default returns a topology with edge-computing-typical numbers: ~5 ms /
// 25 MB/s client–edge, ~40 ms / 5 MB/s edge–cloud.
func Default() Topology {
	return Topology{
		ClientEdge: Link{Latency: 0.005, Bandwidth: 25e6},
		EdgeCloud:  Link{Latency: 0.040, Bandwidth: 5e6},
	}
}

// GroupRoundTime returns the wall-clock time of one group round: the group
// model is broadcast to all clients (parallel downloads), every client
// computes (the slowest gates the round), and uploads return to the edge.
func (t Topology) GroupRoundTime(modelBytes int, clientCompute []float64) float64 {
	if len(clientCompute) == 0 {
		return 0
	}
	down := t.ClientEdge.TransferTime(modelBytes)
	up := t.ClientEdge.TransferTime(modelBytes)
	maxCompute := 0.0
	for _, c := range clientCompute {
		if c > maxCompute {
			maxCompute = c
		}
	}
	return down + maxCompute + up
}

// GlobalRoundTime returns the wall-clock time of one global round: the
// cloud pushes the model to the participating edges, each runs K group
// rounds for its selected groups (groups on one edge run concurrently, so
// the slowest gates the edge), and group models return to the cloud.
// groupTimes[e] lists the single-group-round times of the selected groups
// on edge e.
func (t Topology) GlobalRoundTime(modelBytes, groupRounds int, groupTimes [][]float64) float64 {
	down := t.EdgeCloud.TransferTime(modelBytes)
	up := t.EdgeCloud.TransferTime(modelBytes)
	slowestEdge := 0.0
	for _, times := range groupTimes {
		edgeTime := 0.0
		for _, gt := range times {
			if gt > edgeTime {
				edgeTime = gt
			}
		}
		edgeTime *= float64(groupRounds)
		if edgeTime > slowestEdge {
			slowestEdge = edgeTime
		}
	}
	return down + slowestEdge + up
}
