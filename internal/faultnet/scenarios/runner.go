// Package scenarios executes named chaos plans against a full loopback
// federation: one fednode.RunJob — a cloud, edge servers, and clients that
// fednode supervises within the plan's restart budget — talking through a
// faultnet-wrapped in-memory transport. Each scenario pairs a fault plan
// with the recovery invariants it must uphold —
// exact dropout/straggler/decode-error counts, crash-restart adoption,
// byte-identical fault logs and masked metric snapshots across replays, and,
// for plans that only reshape time, bit-identical final weights against a
// fault-free run.
//
// The faulted run lives in the faultnet network's simulated time: its
// injected delays, partition heals, and every fednode deadline and backoff,
// the restart backoff included, move a clock that jumps whenever the
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
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/fednode"
	"repro/internal/felserve"
	"repro/internal/grouping"
	"repro/internal/metrics"
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
	// Casualties lists the clients that died for good (the Report's);
	// Restarts counts the redials fednode made within the plan's budget.
	// Scenarios decide whether either was part of the script.
	Casualties []fednode.Casualty
	Restarts   int
	// FaultFreeParams is the final parameter vector of the fault-free
	// baseline run, set only for delay-only plans.
	FaultFreeParams []float64
}

// Counter reads one labeled counter from the run's registry.
func (r *Result) Counter(name string, labels ...metrics.Label) int64 {
	return r.Registry.CounterValue(name, labels...)
}

// baseSystem builds the loopback federation population cmd/felnode builds:
// 24 clients on two edges, a seeded synthetic classification task, and a
// small MLP, sized so CoV grouping yields several groups of three or more
// per edge.
func baseSystem() *core.System {
	return felserve.JobSpec{Clients: 24, Edges: 2, SystemSeed: 1}.System()
}

// baseJobConfig is the job every scenario starts from: small and fast, with
// tight dial backoff so restarted clients redial quickly.
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
	sys := baseSystem()
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
		rep, err := fednode.RunJob(fednode.NewMemNetwork(), sys, cfg, "")
		if err != nil {
			return nil, nil, fmt.Errorf("scenarios: fault-free baseline: %w", err)
		}
		baselineParams = rep.Params
	}

	reg := metrics.New()
	cfg.Meter = fednode.NewMeter(reg)
	fnet := faultnet.Wrap(fednode.NewMemNetwork(), plan, reg)
	logf("scenario %s: running plan %q over %d clients", sc.Name, plan.Name, len(sys.Clients))
	rep, err := fednode.RunJob(fnet, sys, cfg, "")
	if err != nil {
		return nil, nil, fmt.Errorf("scenarios: %s: %w", sc.Name, err)
	}
	return &Result{
		Name:            sc.Name,
		Report:          rep,
		Log:             fnet.Log(),
		Registry:        reg,
		Casualties:      rep.Casualties,
		Restarts:        int(reg.CounterValue("fel_fednode_client_restarts_total")),
		FaultFreeParams: baselineParams,
	}, plan, nil
}

// verify checks the universal invariants every scenario shares, then the
// scenario's own.
func verify(sc Scenario, plan *faultnet.Plan, r *Result) error {
	if len(r.Report.Rounds) == 0 {
		return fmt.Errorf("scenarios: %s: report has no rounds", sc.Name)
	}
	if r.Report.RoundsRun != len(r.Report.Rounds) {
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
