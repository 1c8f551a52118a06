package experiments

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// asyncRun is one aggregation mode trained under the straggler storm.
type asyncRun struct {
	name string
	mode async.Config
	res  *core.Result
	reg  *metrics.Registry
}

// asyncVsSyncRuns trains the same federation — same formation, sampling,
// seeds, dropout and straggler-storm delay draws — once per aggregation
// mode; only cfg.Async varies between runs. The rows are a synchronous
// reference (its barrier priced on the same logical clock), buffered
// FedBuff, semi-sync, and the α=0 full-buffer probe that must reproduce sync
// bit for bit.
func asyncVsSyncRuns(sc Scale, seed uint64) []asyncRun {
	storm := async.StragglerStorm()
	runs := []asyncRun{
		{name: "sync", mode: async.Config{Delays: storm}},
		{name: "buffered", mode: async.Config{Mode: async.Buffered, Alpha: 0.5, BufferFrac: 0.5, Delays: storm}},
		{name: "semisync", mode: async.Config{Mode: async.SemiSync, Alpha: 0.5, DeadlineTicks: 60, Delays: storm}},
		{name: "buffered-alpha0-full", mode: async.Config{Mode: async.Buffered, Alpha: 0, BufferFrac: 1, Delays: storm}},
	}
	for i := range runs {
		r := &runs[i]
		cfg := sc.BaseConfig(CIFAR, seed)
		cfg.Grouping = covg(sc.MinGS, sc.MaxCoV)
		cfg.Sampling = sampling.ESRCoV
		cfg.Weights = sampling.Biased
		cfg.Async = r.mode
		r.reg = metrics.New()
		cfg.Metrics = r.reg
		r.res = core.Train(sc.NewSystem(CIFAR, 0.05, seed), cfg)
	}
	return runs
}

// asyncTable renders one row per run. Every cell is seed-deterministic
// (logical ticks, not wall time), so the CSV is a golden like the figures.
// arrival_events counts what an async group round does — an arrival folded,
// a dropout observed, a flush, a carryover or a late drop — from the run's
// counters; a sync run's barrier has none.
func asyncTable(runs []asyncRun) *trace.Table {
	t := &trace.Table{
		ID:    "async-vs-sync",
		Title: "Sync vs buffered-async vs semi-sync aggregation under a straggler storm",
		Header: []string{"name", "mode", "alpha", "buffer_frac", "deadline_ticks",
			"final_accuracy", "final_loss", "logical_ticks", "carryovers", "late_drops",
			"dropouts", "arrival_events"},
	}
	for _, r := range runs {
		events := 0
		if r.mode.Mode != async.Sync {
			events = int(r.reg.CounterValue("fel_async_folds_total")+r.reg.CounterValue("fel_async_flushes_total")) +
				r.res.Dropouts + r.res.Carryovers + r.res.LateDrops
		}
		t.AddRow(r.name, r.mode.Mode.String(), fmt.Sprint(r.mode.Alpha), fmt.Sprint(r.mode.BufferFrac), fmt.Sprint(r.mode.DeadlineTicks),
			fmt.Sprintf("%.4f", r.res.FinalAccuracy), fmt.Sprintf("%.6f", r.res.FinalLoss),
			fmt.Sprint(r.res.LogicalTicks), fmt.Sprint(r.res.Carryovers), fmt.Sprint(r.res.LateDrops),
			fmt.Sprint(r.res.Dropouts), fmt.Sprint(events))
	}
	return t
}

// AsyncVsSync compares the aggregation modes of internal/async on one
// federation under the straggler-storm delay model.
func AsyncVsSync(sc Scale, seed uint64) *trace.Table {
	return asyncTable(asyncVsSyncRuns(sc, seed))
}
