// Package scenarios executes named chaos plans against a full loopback
// federation: a cloud, edge servers, and supervised clients, all in one
// process, talking through a faultnet-wrapped in-memory transport. Each
// scenario pairs a fault plan with the recovery invariants it must uphold —
// exact dropout/straggler/decode-error counts, crash-restart adoption,
// byte-identical fault logs and masked metric snapshots across replays, and,
// for plans that only reshape time, bit-identical final weights against a
// fault-free run.
//
// The faulted run lives in the faultnet network's simulated time: its
// injected delays, partition heals, every fednode deadline and backoff, and
// the supervisors' restart backoff move a clock that jumps whenever the
// process is idle, so a 1.5 s straggler costs milliseconds and a crashed
// client always rejoins at the same round boundary. Only in-process
// transports can run that way; the fault-free baseline is an ordinary
// MemNetwork job.
//
// Plans target links by node tag. One design rule keeps replays
// byte-comparable: rules should only match links with a single sequential
// writer (client→edge, cloud→edge, edge→client), where the frame order is
// fixed by the protocol. The edge→cloud aggregate link is written by
// concurrent group runners through a mutex, so its frame order is
// scheduling-dependent — a rule matching it would still fire
// deterministically per frame index, but the (round, group) an event
// attaches to would vary run to run.
package scenarios

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/faultnet"
	"repro/internal/fednode"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// Context is what a scenario sees when it builds its plan: the formed
// groups and the job configuration, so rules can target specific clients
// ("the first member of the second group of size ≥ 3") deterministically —
// formation is seeded, so the same targets come out every run.
type Context struct {
	Sys    *core.System
	Groups []*grouping.Group
	Cfg    *fednode.JobConfig
}

// Targets returns the first member's client id from each of the first n
// groups of size >= minSize; fewer when formation produced fewer such
// groups.
func (c *Context) Targets(n, minSize int) []int {
	var ids []int
	for _, g := range c.Groups {
		if len(ids) == n {
			break
		}
		if g.Size() >= minSize {
			ids = append(ids, g.Clients[0].ID)
		}
	}
	return ids
}

// Scenario is one named chaos plan plus the invariants it must uphold.
type Scenario struct {
	// Name identifies the scenario in the registry and the felnode CLI.
	Name string
	// About is a one-line description.
	About string
	// Tune adjusts the base job configuration (timeouts, rounds) before the
	// plan is built. May be nil.
	Tune func(cfg *fednode.JobConfig)
	// Plan builds the fault plan against the formed system.
	Plan func(ctx *Context) *faultnet.Plan
	// Expect checks scenario-specific invariants on the finished run. May
	// be nil (the universal invariants still apply).
	Expect func(r *Result) error
	// NoBaseline opts out of the delay-only bitwise-weights check. Needed
	// when a plan is technically delay-only but the delays are scripted to
	// exceed the straggler deadline: past the deadline a delay is
	// semantically a dropout, and the trajectory is supposed to change.
	NoBaseline bool
}

// Casualty is a client whose supervisor gave up: its process error after
// the restart budget was spent. Scenarios decide whether casualties were
// part of the script.
type Casualty struct {
	Client int
	Err    error
}

// Result is one finished chaos run.
type Result struct {
	Name string
	// Report is the cloud's job report.
	Report *fednode.Report
	// Log is the injected-fault event log; its rendered form is the replay
	// artifact two runs of the same plan must reproduce byte-for-byte.
	Log *faultnet.Log
	// Registry holds every fel_* counter the run produced.
	Registry *metrics.Registry
	// Casualties lists clients that died for good; Restarts counts
	// crash-restart attempts the supervisors made.
	Casualties []Casualty
	Restarts   int
	// FaultFreeParams is the final parameter vector of the fault-free
	// baseline run, set only for delay-only plans.
	FaultFreeParams []float64
}

// Counter reads one labeled counter from the run's registry.
func (r *Result) Counter(name string, labels ...metrics.Label) int64 {
	return r.Registry.CounterValue(name, labels...)
}

// baseSystem builds the loopback federation population: two edges, a
// seeded synthetic classification task, and a small MLP — the same shape
// cmd/felnode's loopback mode uses, sized so CoV grouping yields several
// groups of three or more per edge.
func baseSystem(numClients int, seed uint64) *core.System {
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	return core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: numClients, Alpha: 0.5,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: seed + 1,
		},
		NumEdges: 2,
		TestSize: 200,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{16}, 4, s)
		},
		ModelSeed: 7,
	})
}

// baseJobConfig is the job every scenario starts from: small and fast, with
// tight dial backoff so supervised restarts converge quickly.
func baseJobConfig() fednode.JobConfig {
	return fednode.JobConfig{
		GlobalRounds: 3, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 2,
		Grouping: grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}},
		Sampling: sampling.ESRCoV,
		Weights:  sampling.Biased,
		Seed:     42,
		// Generous enough for injected partitions and delays, short enough
		// that a genuinely wedged run fails fast.
		RoundTimeout: 20 * time.Second,
		DialAttempts: 6, DialBackoff: 5 * time.Millisecond,
	}
}

// Run executes one scenario and verifies its invariants. logf (may be nil)
// receives progress lines. The returned Result is valid only when err is
// nil.
func Run(sc Scenario, logf func(format string, args ...any)) (*Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res, plan, err := execute(sc, logf)
	if err != nil {
		return nil, err
	}
	if err := verify(sc, plan, res); err != nil {
		return nil, err
	}
	logf("scenario %s: ok (%d faults injected, %d rounds, %d casualties, %d restarts)",
		sc.Name, res.Log.Len(), res.Report.RoundsRun, len(res.Casualties), res.Restarts)
	return res, nil
}

// execute builds the scenario's plan and runs its job — after a fault-free
// baseline when the plan is delay-only — returning the finished run for
// verify. An error means the plan was invalid or the job itself failed.
func execute(sc Scenario, logf func(format string, args ...any)) (*Result, *faultnet.Plan, error) {
	sys := baseSystem(24, 1)
	cfg := baseJobConfig()
	if sc.Tune != nil {
		sc.Tune(&cfg)
	}

	// Pin formation and selection: every group trains every round, so fault
	// targets are deterministically in play and replays line up.
	groups, err := cfg.PinAllGroups(sys)
	if err != nil {
		return nil, nil, fmt.Errorf("scenarios: %w", err)
	}

	plan := sc.Plan(&Context{Sys: sys, Groups: groups, Cfg: &cfg})
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}

	// Delay-only plans must not change the trajectory: run the identical
	// job fault-free first and keep its weights for the bitwise check.
	var baselineParams []float64
	if plan.DelayOnly() && !sc.NoBaseline {
		logf("scenario %s: running fault-free baseline", sc.Name)
		base := cfg
		base.Meter = fednode.NewMeter(metrics.New())
		rep, err := fednode.RunJob(fednode.NewMemNetwork(), sys, base, "")
		if err != nil {
			return nil, nil, fmt.Errorf("scenarios: fault-free baseline: %w", err)
		}
		baselineParams = rep.Params
	}

	reg := metrics.New()
	meter := fednode.NewMeter(reg)
	cfg.Meter = meter
	fnet := faultnet.Wrap(fednode.NewMemNetwork(), plan, reg)

	cloudLn, err := fnet.ListenAs("cloud", "")
	if err != nil {
		return nil, nil, fmt.Errorf("scenarios: cloud listen: %w", err)
	}
	defer closeQuiet(cloudLn)
	edgeLns := make([]net.Listener, len(sys.Edges))
	edgeAddrs := make([]string, len(sys.Edges))
	for e := range sys.Edges {
		ln, err := fnet.ListenAs(fmt.Sprintf("edge/%d", e), "")
		if err != nil {
			return nil, nil, fmt.Errorf("scenarios: edge %d listen: %w", e, err)
		}
		defer closeQuiet(ln)
		edgeLns[e] = ln
		edgeAddrs[e] = ln.Addr().String()
	}

	// Edges must survive every scripted fault; their errors fail the run.
	edgeErrs := make(chan error, len(sys.Edges))
	var edgeWG sync.WaitGroup
	for e := range sys.Edges {
		edgeWG.Add(1)
		go func(e int) {
			defer edgeWG.Done()
			if err := fednode.NewEdge(e, sys, cfg, meter).Run(fnet, edgeLns[e], cloudLn.Addr().String()); err != nil {
				edgeErrs <- fmt.Errorf("edge %d: %w", e, err)
			}
		}(e)
	}

	// Clients run supervised: a crash consumes one restart from the plan's
	// budget and redials (the edge replays its assignment and adopts it at
	// the next round boundary); a client that spends the budget becomes a
	// casualty for the scenario to judge.
	var restarts atomic.Int64
	casualtyCh := make(chan Casualty, len(sys.Clients))
	var clientWG sync.WaitGroup
	for e, clients := range sys.Edges {
		for _, cl := range clients {
			clientWG.Add(1)
			go func(id int, addr string) {
				defer clientWG.Done()
				for attempt := 0; ; attempt++ {
					_, err := fednode.NewClient(id, sys, cfg, meter).Run(fnet, addr)
					if err == nil {
						return
					}
					if attempt >= plan.MaxRestarts {
						casualtyCh <- Casualty{Client: id, Err: err}
						return
					}
					restarts.Add(1)
					logf("scenario %s: client %d restarting after: %v", sc.Name, id, err)
					fnet.Clock().Sleep(time.Duration(plan.RestartBackoffMs) * time.Millisecond)
				}
			}(cl.ID, edgeAddrs[e])
		}
	}

	logf("scenario %s: running plan %q over %d clients", sc.Name, plan.Name, len(sys.Clients))
	rep, cloudErr := fednode.NewCloud(sys, cfg, meter).Run(cloudLn)
	edgeWG.Wait()
	// Edges are done; closing the listeners unwedges any client supervisor
	// still redialing a finished job.
	closeQuiet(cloudLn)
	for _, ln := range edgeLns {
		closeQuiet(ln)
	}
	clientWG.Wait()
	close(edgeErrs)
	close(casualtyCh)

	if cloudErr != nil {
		return nil, nil, fmt.Errorf("scenarios: %s: cloud: %w", sc.Name, cloudErr)
	}
	for err := range edgeErrs {
		return nil, nil, fmt.Errorf("scenarios: %s: %w", sc.Name, err)
	}

	res := &Result{
		Name:            sc.Name,
		Report:          rep,
		Log:             fnet.Log(),
		Registry:        reg,
		Restarts:        int(restarts.Load()),
		FaultFreeParams: baselineParams,
	}
	for c := range casualtyCh {
		res.Casualties = append(res.Casualties, c)
	}
	return res, plan, nil
}

// verify checks the universal invariants every scenario shares, then the
// scenario's own.
func verify(sc Scenario, plan *faultnet.Plan, r *Result) error {
	if len(r.Report.Rounds) == 0 {
		return fmt.Errorf("scenarios: %s: report has no rounds", sc.Name)
	}
	if r.Report.RoundsRun != r.Report.Rounds[len(r.Report.Rounds)-1].Round+1 {
		return fmt.Errorf("scenarios: %s: round accounting inconsistent", sc.Name)
	}
	// Every injected fault must land in both the log and the registry, in
	// equal measure: the log is the replay artifact, the counters are the
	// operator's view, and they must not drift.
	for action, n := range r.Log.Counts() {
		got := r.Counter("fel_faultnet_injected_total", metrics.L("action", string(action)))
		if got != int64(n) {
			return fmt.Errorf("scenarios: %s: log has %d %s events but registry counted %d", sc.Name, n, action, got)
		}
	}
	// A plan that only reshapes time must leave the trajectory untouched:
	// final weights bit-identical to the fault-free baseline.
	if r.FaultFreeParams != nil {
		if len(r.FaultFreeParams) != len(r.Report.Params) {
			return fmt.Errorf("scenarios: %s: param dims differ from baseline: %d vs %d",
				sc.Name, len(r.Report.Params), len(r.FaultFreeParams))
		}
		for j := range r.Report.Params {
			if math.Float64bits(r.Report.Params[j]) != math.Float64bits(r.FaultFreeParams[j]) {
				return fmt.Errorf("scenarios: %s: delay-only plan changed weights at param %d: %x vs %x",
					sc.Name, j, math.Float64bits(r.Report.Params[j]), math.Float64bits(r.FaultFreeParams[j]))
			}
		}
	}
	if sc.Expect != nil {
		if err := sc.Expect(r); err != nil {
			return fmt.Errorf("scenarios: %s: %w", sc.Name, err)
		}
	}
	return nil
}

// closeQuiet closes c on a cleanup path where the error changes nothing.
func closeQuiet(c interface{ Close() error }) {
	//lint:ignore dropped-error cleanup-path close; the listener is being abandoned either way
	c.Close()
}
