package fednode

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/grouping"
	"repro/internal/metrics"
)

// RunJob runs a complete networked job in this process — the cloud, every
// edge server, and every client, each on its own goroutine, talking through
// nw. listenAddr seeds every listener: "127.0.0.1:0" for TCP (each listener
// gets its own ephemeral port), "" for a MemNetwork (auto-named). All nodes
// share one Meter, so the report's byte accounting covers the whole
// cluster and WireWritten can be cross-checked against AccountedBytes.
// When RunJob returns, every node goroutine has been joined.
func RunJob(nw Network, sys *core.System, cfg JobConfig, listenAddr string) (*Report, error) {
	cfg = cfg.withDefaults()
	m := cfg.Meter
	if m == nil {
		m = NewMeter(nil)
	}

	cloudLn, err := listenTagged(nw, "cloud", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("fednode: cloud listen: %w", err)
	}
	defer closeQuiet(cloudLn)
	cloudAddr := cloudLn.Addr().String()

	edgeLns := make([]net.Listener, len(sys.Edges))
	edgeAddrs := make([]string, len(sys.Edges))
	for e := range sys.Edges {
		ln, err := listenTagged(nw, fmt.Sprintf("edge/%d", e), listenAddr)
		if err != nil {
			return nil, fmt.Errorf("fednode: edge %d listen: %w", e, err)
		}
		defer closeQuiet(ln)
		edgeLns[e] = ln
		edgeAddrs[e] = ln.Addr().String()
	}

	// Node errors funnel into a buffered channel sized for every sender; a
	// failing node tears the cluster down through its deferred connection
	// closes, so the others unblock and report too — first error wins.
	numClients := len(sys.Clients)
	errs := make(chan error, len(sys.Edges)+numClients)
	var wg sync.WaitGroup
	for e := range sys.Edges {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			if err := NewEdge(e, sys, cfg, m).Run(nw, edgeLns[e], cloudAddr); err != nil {
				errs <- fmt.Errorf("fednode: edge %d: %w", e, err)
			}
		}(e)
	}
	for e, clients := range sys.Edges {
		for _, cl := range clients {
			wg.Add(1)
			go func(id int, addr string) {
				defer wg.Done()
				if _, err := NewClient(id, sys, cfg, m).Run(nw, addr); err != nil {
					errs <- fmt.Errorf("fednode: client %d: %w", id, err)
				}
			}(cl.ID, edgeAddrs[e])
		}
	}

	rep, cloudErr := NewCloud(sys, cfg, m).Run(cloudLn)
	wg.Wait()
	close(errs)
	if cloudErr != nil {
		return nil, cloudErr
	}
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Re-snapshot the meter now that every node has joined: the cloud fills
	// these as it returns, but on synchronous pipes an edge's final ack
	// Write only returns — and counts itself — after the cloud has already
	// read it, so the cloud-side snapshot can run a frame short.
	rep.WireWritten = m.Written()
	rep.WireRead = m.Read()
	rep.Frames = m.Frames()
	rep.AccountedBytes = m.Accounted()
	return rep, nil
}

// TrainConfig spells the job as the core.Config its cloud's Trainer steps —
// and, with reg nil, the in-process twin a loopback run is compared against.
// A job has no cost model of its own: Eq. 5 runs under the CIFAR profile.
func (cfg JobConfig) TrainConfig(reg *metrics.Registry) core.Config {
	return core.Config{
		GlobalRounds: cfg.GlobalRounds, GroupRounds: cfg.GroupRounds, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, LR: cfg.LR, SampleGroups: cfg.SampleGroups,
		Grouping: cfg.Grouping, Sampling: cfg.Sampling, Weights: cfg.Weights,
		Seed: cfg.Seed, EvalEvery: cfg.EvalEvery, InitParams: cfg.InitParams,
		CostProfile: cost.CIFARProfile(), CostOps: cost.DefaultOps(),
		Metrics: reg,
	}
}

// PinAllGroups forms the job's groups exactly as the cloud would, then pins
// that formation and selects every group in every round, so a fault aimed
// at any client is deterministically in play and replays line up. Every
// process of a deployment derives the same pin from the shared config. It
// returns the pinned groups.
func (cfg *JobConfig) PinAllGroups(sys *core.System) ([]*grouping.Group, error) {
	plan, err := core.NewPlan(sys, cfg.TrainConfig(nil), nil, nil)
	if err != nil {
		return nil, fmt.Errorf("fednode: %w", err)
	}
	all := make([]int, len(plan.Groups()))
	for i := range all {
		all[i] = i
	}
	cfg.Groups = plan.Groups()
	cfg.FixedSelection = make([][]int, cfg.GlobalRounds)
	for t := range cfg.FixedSelection {
		cfg.FixedSelection[t] = all
	}
	return cfg.Groups, nil
}

// RunRound runs one networked global round over pre-formed groups and an
// explicit selection, returning the new global parameters. On a faultnet
// network running faultnet.ModelPlan the round is priced on the modelled
// links of the paper's Fig. 1: its duration is the simulated time that passes
// on clock.Of(nw) while it runs. The caller sets cfg.StragglerTimeout above
// its slowest client's modelled compute time.
func RunRound(nw Network, sys *core.System, groups []*grouping.Group, selected []int, globalParams []float64, cfg JobConfig, listenAddr string) ([]float64, *Report, error) {
	cfg.GlobalRounds = 1
	cfg.Groups = groups
	cfg.FixedSelection = [][]int{selected}
	cfg.InitParams = globalParams
	rep, err := RunJob(nw, sys, cfg, listenAddr)
	if err != nil {
		return nil, nil, err
	}
	return rep.Params, rep, nil
}
