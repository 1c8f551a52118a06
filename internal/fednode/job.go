package fednode

import (
	"cmp"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/grouping"
	"repro/internal/metrics"
)

// RunJob runs a complete networked job in this process: the cloud on this
// goroutine and one RunEdge per edge — the edge server and its supervised
// clients — talking through nw. listenAddr seeds every listener:
// "127.0.0.1:0" for TCP (each listener gets its own ephemeral port), "" for a
// MemNetwork (auto-named). All nodes share one Meter, so the report's byte
// accounting covers the whole cluster and WireWritten can be cross-checked
// against AccountedBytes. A client that fails for good is one of the report's
// Casualties, not an error; a cloud or edge failure fails the job, the first
// error winning. When RunJob returns, every node goroutine has been joined.
func RunJob(nw Network, sys *core.System, cfg JobConfig, listenAddr string) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Meter == nil {
		cfg.Meter = NewMeter(nil)
	}
	m := cfg.Meter

	cloudLn, err := listenTagged(nw, "cloud", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("fednode: cloud listen: %w", err)
	}
	defer closeQuiet(cloudLn)
	cloudAddr := cloudLn.Addr().String()

	edgeLns := make([]net.Listener, len(sys.Edges))
	for e := range sys.Edges {
		ln, err := listenTagged(nw, fmt.Sprintf("edge/%d", e), listenAddr)
		if err != nil {
			return nil, fmt.Errorf("fednode: edge %d listen: %w", e, err)
		}
		defer closeQuiet(ln)
		edgeLns[e] = ln
	}

	// A failing node tears the cluster down through its deferred connection
	// closes, so the others unblock and report too.
	errs := make(chan error, len(sys.Edges))
	casualties := make([][]Casualty, len(sys.Edges))
	var wg sync.WaitGroup
	for e, ln := range edgeLns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if casualties[e], err = RunEdge(nw, sys, cfg, e, ln, cloudAddr); err != nil {
				errs <- err
			}
		}()
	}

	rep, cloudErr := NewCloud(sys, cfg, m).Run(cloudLn)
	wg.Wait()
	close(errs)
	if cloudErr != nil {
		return nil, cloudErr
	}
	for err := range errs {
		return nil, err
	}
	rep.Casualties = sortCasualties(slices.Concat(casualties...))
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

// Casualty is a client that failed for good: the error of its last run, once
// its restart budget was spent.
type Casualty struct {
	Client int
	Err    error
}

// sortCasualties orders cs by client id, in place, and returns it.
func sortCasualties(cs []Casualty) []Casualty {
	slices.SortFunc(cs, func(a, b Casualty) int { return cmp.Compare(a.Client, b.Client) })
	return cs
}

// RunEdge serves edge id of sys on ln, registering with the cloud at
// cloudAddr, and hosts the edge's clients in this process, each dialing ln.
// A client whose run fails is redialed while the restart budget nw grants
// lasts, after the budget's backoff on nw's clock; then it is a Casualty.
// RunEdge returns once the edge and every client have, with the casualties
// by client id; only the edge's own failure is an error. Edge.Run closes ln
// when it returns, which is what stops a client still redialing a finished
// job.
func RunEdge(nw Network, sys *core.System, cfg JobConfig, id int, ln net.Listener, cloudAddr string) ([]Casualty, error) {
	if id < 0 || id >= len(sys.Edges) {
		return nil, fmt.Errorf("fednode: edge id %d out of range [0,%d)", id, len(sys.Edges))
	}
	if cfg.Meter == nil {
		cfg.Meter = NewMeter(nil)
	}
	restarts, backoff := restartBudget(nw)
	addr := ln.Addr().String()
	var (
		mu         sync.Mutex
		casualties []Casualty
		wg         sync.WaitGroup
	)
	for _, cl := range sys.Edges[id] {
		c := NewClient(cl.ID, sys, cfg, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.supervise(nw, addr, restarts, backoff); err != nil {
				mu.Lock()
				casualties = append(casualties, Casualty{Client: c.id, Err: err})
				mu.Unlock()
			}
		}()
	}
	err := NewEdge(id, sys, cfg, nil).Run(nw, ln, cloudAddr)
	// An edge that failed before serving rejoins has not closed ln yet.
	closeQuiet(ln)
	wg.Wait()
	if err != nil {
		return sortCasualties(casualties), fmt.Errorf("fednode: edge %d: %w", id, err)
	}
	return sortCasualties(casualties), nil
}

// supervise runs the client until it finishes or has failed restarts+1
// times, returning the last failure. Before each redial it counts
// fel_fednode_client_restarts_total and sleeps backoff on nw's clock.
func (c *Client) supervise(nw Network, edgeAddr string, restarts int, backoff time.Duration) error {
	for attempt := 0; ; attempt++ {
		_, err := c.Run(nw, edgeAddr)
		if err == nil || attempt >= restarts {
			return err
		}
		c.meter.restarts.Inc()
		c.logf("client %d: restarting after: %v", c.id, err)
		clock.Of(nw).Sleep(backoff)
	}
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
