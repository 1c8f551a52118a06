package groupfel

import (
	"net"

	"repro/internal/fednode"
)

// Networked execution: Group-FEL over real net.Conn transports — TCP
// sockets between processes, or in-memory pipes inside one — with the wire
// codec of internal/wire and straggler/dropout handling mapped onto secure
// aggregation (internal/fednode). On a faultnet network running
// faultnet.ModelPlan a round takes Fig. 1's modelled time, in simulated seconds.
type (
	// NetworkedJobConfig parameterizes a multi-round networked job.
	NetworkedJobConfig = fednode.JobConfig
	// NetworkedReport is the cloud's view of a finished networked job.
	NetworkedReport = fednode.Report
	// NetworkTransport abstracts the byte transport (TCP or in-memory).
	NetworkTransport = fednode.Network
	// TCPTransport is the real-socket transport.
	TCPTransport = fednode.TCPNetwork
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
// pre-formed groups and an explicit selection.
func RunNetworkedRound(nw NetworkTransport, sys *System, groups []*Group, selected []int, globalParams []float64, cfg NetworkedJobConfig, listenAddr string) ([]float64, *NetworkedReport, error) {
	return fednode.RunRound(nw, sys, groups, selected, globalParams, cfg, listenAddr)
}

// ServeCloud runs the cloud coordinator of a networked job on ln, blocking
// until the job drains; edge servers are expected to dial in and register.
func ServeCloud(ln net.Listener, sys *System, cfg NetworkedJobConfig) (*NetworkedReport, error) {
	return fednode.NewCloud(sys, cfg, nil).Run(ln)
}
