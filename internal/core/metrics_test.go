package core

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sampling"
)

// TestTrainMetricsSnapshotDeterministic runs the same seeded training twice
// against fresh registries and requires the timing-masked snapshots to be
// byte-identical: counter totals, gauge values, and span counts are part of
// the deterministic-replay contract; only durations may vary.
func TestTrainMetricsSnapshotDeterministic(t *testing.T) {
	snap := func() string {
		sys := testSystem(12, 0.5, 1)
		cfg := testConfig()
		cfg.GlobalRounds = 4
		reg := metrics.New()
		cfg.Metrics = reg
		Train(sys, cfg)
		return metrics.MaskTimings(reg.Snapshot())
	}
	a, b := snap(), snap()
	if a != b {
		t.Fatalf("masked snapshots differ between identical seeded runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"fel_core_rounds_total 4",
		"fel_core_group_selected_total",
		"fel_core_group_prob",
		"fel_core_local_train_seconds_count",
		"fel_core_global_aggregate_seconds_count 4",
		"fel_core_formation_seconds_count 1", // no RegroupEvery: NewTrainer's formation only
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("snapshot is missing %q:\n%s", want, a)
		}
	}
}

// TestTrainWithoutMetricsUnchanged pins the nil-registry contract: a run
// with no registry must follow the exact trajectory of an instrumented one.
func TestTrainWithoutMetricsUnchanged(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalRounds = 3
	bare := Train(testSystem(10, 0.5, 2), cfg)
	cfg.Metrics = metrics.New()
	instrumented := Train(testSystem(10, 0.5, 2), cfg)
	if bare.FinalAccuracy != instrumented.FinalAccuracy {
		t.Fatalf("instrumentation changed the trajectory: %v vs %v", bare.FinalAccuracy, instrumented.FinalAccuracy)
	}
	for i := range bare.Params {
		if bare.Params[i] != instrumented.Params[i] {
			t.Fatal("instrumentation changed the final parameters")
		}
	}
}

// TestSamplingFrequencyAudit reproduces the Sec. 6.1 sampling check from
// metrics alone: with SRCoV and S=1 each round draws exactly one group from
// the categorical distribution p, so over a long seeded run the selection
// counters must track the configured probabilities. The run is
// deterministic, so the 5% relative-error bound is exact, not flaky; the
// same audit on a live felnode snapshot is walked through in
// EXPERIMENTS.md.
func TestSamplingFrequencyAudit(t *testing.T) {
	const rounds = 3000
	sys := testSystem(12, 0.5, 1)
	cfg := testConfig()
	cfg.GlobalRounds = rounds
	cfg.SampleGroups = 1
	cfg.Sampling = sampling.SRCoV
	cfg.Seed = 11
	cfg.EvalEvery = rounds + 1
	reg := metrics.New()
	cfg.Metrics = reg
	res := Train(sys, cfg)

	if len(res.Groups) < 2 {
		t.Fatalf("only %d groups formed; the audit needs a real distribution", len(res.Groups))
	}
	var total int64
	for i := range res.Groups {
		total += reg.CounterValue("fel_core_group_selected_total", metrics.L("group", strconv.Itoa(res.Groups[i].ID)))
	}
	if total != rounds {
		t.Fatalf("selection counters total %d, want %d (S=1 over %d rounds)", total, rounds, rounds)
	}
	for i, g := range res.Groups {
		gl := metrics.L("group", strconv.Itoa(g.ID))
		if p := reg.GaugeValue("fel_core_group_prob", gl); p != res.Probs[i] {
			t.Fatalf("group %d prob gauge %v, result says %v", g.ID, p, res.Probs[i])
		}
		emp := float64(reg.CounterValue("fel_core_group_selected_total", gl)) / rounds
		rel := math.Abs(emp-res.Probs[i]) / res.Probs[i]
		if rel > 0.05 {
			t.Fatalf("group %d empirical frequency %.4f vs p_g %.4f: relative error %.3f > 5%%",
				g.ID, emp, res.Probs[i], rel)
		}
	}
}
