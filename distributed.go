package groupfel

import (
	"net"

	"repro/internal/fednode"
	"repro/internal/hfl"
)

// Distributed execution: Group-FEL rounds as the message flow of Fig. 1,
// priced on the modelled edge network, with secure aggregation inside groups
// (internal/hfl). The in-process Train is the fast path; this is the
// protocol-faithful path.
type (
	// DistributedRoundConfig parameterizes one distributed global round.
	DistributedRoundConfig = hfl.RoundConfig
	// DistributedRoundResult reports the outcome and wall-clock time.
	DistributedRoundResult = hfl.RoundResult
	// NetworkTopology models client–edge and edge–cloud links.
	NetworkTopology = hfl.Topology
	// NetworkLink is one latency/bandwidth link.
	NetworkLink = hfl.Link
)

// RunDistributedRound executes one global round of Alg. 1 for the selected
// groups as a message exchange priced on the modelled links, with
// secure-aggregation-masked group aggregation.
func RunDistributedRound(sys *System, groups []*Group, selected []int, globalParams []float64, cfg DistributedRoundConfig) (*DistributedRoundResult, error) {
	return hfl.RunGlobalRound(sys, groups, selected, globalParams, cfg)
}

// DefaultTopology returns edge-computing-typical link parameters.
func DefaultTopology() NetworkTopology { return hfl.DefaultTopology() }

// Networked execution: Group-FEL over real net.Conn transports — TCP
// sockets between processes, or in-memory pipes inside one — with the wire
// codec of internal/wire and straggler/dropout handling mapped onto secure
// aggregation (internal/fednode). Where RunDistributedRound *models* link
// times, this path *measures* wall-clock and bytes on the wire.
type (
	// NetworkedJobConfig parameterizes a multi-round networked job.
	NetworkedJobConfig = fednode.JobConfig
	// NetworkedReport is the cloud's view of a finished networked job.
	NetworkedReport = fednode.Report
	// NetworkTransport abstracts the byte transport (TCP or in-memory).
	NetworkTransport = fednode.Network
	// TCPTransport is the real-socket transport.
	TCPTransport = fednode.TCPNetwork
	// NetworkedDrop injects one mid-round client disconnect (fault demo).
	NetworkedDrop = fednode.ForcedDrop
)

// NewMemTransport returns an in-process transport over net.Pipe pairs.
func NewMemTransport() NetworkTransport { return fednode.NewMemNetwork() }

// RunNetworkedJob runs a complete multi-round job — cloud, edges, clients —
// in this process over nw. listenAddr seeds every listener ("127.0.0.1:0"
// for TCP, "" for a memory transport).
func RunNetworkedJob(nw NetworkTransport, sys *System, cfg NetworkedJobConfig, listenAddr string) (*NetworkedReport, error) {
	return fednode.RunJob(nw, sys, cfg, listenAddr)
}

// RunNetworkedRound executes one global round over real connections for
// pre-formed groups and an explicit selection — the measured counterpart of
// RunDistributedRound.
func RunNetworkedRound(nw NetworkTransport, sys *System, groups []*Group, selected []int, globalParams []float64, cfg NetworkedJobConfig, listenAddr string) ([]float64, *NetworkedReport, error) {
	return fednode.RunRound(nw, sys, groups, selected, globalParams, cfg, listenAddr)
}

// ServeCloud runs the cloud coordinator of a networked job on ln, blocking
// until the job drains; edge servers are expected to dial in and register.
func ServeCloud(ln net.Listener, sys *System, cfg NetworkedJobConfig) (*NetworkedReport, error) {
	return fednode.NewCloud(sys, cfg, nil).Run(ln)
}
