package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/grouping"
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
		"fel_core_groups ",
		"fel_core_gamma_p ",
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
// the Result alone: with SRCoV and S=1 each round draws exactly one group
// from the categorical distribution p, so over a long seeded run the
// selection counts must track the configured probabilities. Without a
// regroup the formation is fixed, and every member of a selected group is
// counted in Participation whether or not it drops out, so a group's
// selection count is its first member's participation. The run is
// deterministic, so the 5% relative-error bound is exact, not flaky; the
// same audit on a networked job reads fednode's Report.Participation
// (EXPERIMENTS.md).
func TestSamplingFrequencyAudit(t *testing.T) {
	const rounds = 3000
	sys := testSystem(12, 0.5, 1)
	cfg := testConfig()
	cfg.GlobalRounds = rounds
	cfg.SampleGroups = 1
	cfg.Sampling = sampling.SRCoV
	cfg.Seed = 11
	cfg.EvalEvery = rounds + 1
	res := Train(sys, cfg)

	if len(res.Groups) < 2 {
		t.Fatalf("only %d groups formed; the audit needs a real distribution", len(res.Groups))
	}
	total := 0
	for _, g := range res.Groups {
		total += res.Participation[g.Clients[0].ID]
	}
	if total != rounds {
		t.Fatalf("selection counts total %d, want %d (S=1 over %d rounds)", total, rounds, rounds)
	}
	for i, g := range res.Groups {
		emp := float64(res.Participation[g.Clients[0].ID]) / rounds
		rel := math.Abs(emp-res.Probs[i]) / res.Probs[i]
		if rel > 0.05 {
			t.Fatalf("group %d empirical frequency %.4f vs p_g %.4f: relative error %.3f > 5%%",
				g.ID, emp, res.Probs[i], rel)
		}
	}
}

// TestMetricSeriesDoNotGrowWithGroups: no core series is per group or per
// client. Two populations on the same two edges, 60 and 600 clients
// regrouped every round, publish the same 11 series (27 exposition lines
// besides histogram buckets), none labelled by group. The two formation
// gauges describe the formation in force after a regroup that formed fewer
// groups than the one before: fel_core_groups its count, fel_core_gamma_p
// sampling.GammaP of its p_g bit for bit. The registry still renders as
// JSON, where a Γ_p of +Inf (a p_g that underflowed) is written as a string.
func TestMetricSeriesDoNotGrowWithGroups(t *testing.T) {
	keys := func(clients int) []string {
		cfg := testConfig()
		cfg.Sampling = sampling.RCoV
		cfg.Grouping = grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MaxCoV: 0.3, MergeLeftover: true}}
		cfg.RegroupEvery = 1
		reg := metrics.New()
		cfg.Metrics = reg
		tr := NewTrainer(testSystem(clients, 0.5, 2), cfg)
		shrank := false
		for prev := len(tr.Groups()); !tr.Done() && !shrank; {
			tr.Step()
			shrank = len(tr.Groups()) < prev
			prev = len(tr.Groups())
		}
		if !shrank {
			t.Fatalf("%d clients: no regroup formed fewer groups than the one before; the test checks nothing", clients)
		}
		if got, want := reg.GaugeValue("fel_core_groups"), float64(len(tr.Groups())); got != want {
			t.Errorf("%d clients: fel_core_groups %v, the live formation has %v groups", clients, got, want)
		}
		got, want := reg.GaugeValue("fel_core_gamma_p"), sampling.GammaP(tr.plan.Probs())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%d clients: fel_core_gamma_p %v, GammaP of the live p_g is %v", clients, got, want)
		}
		if _, err := reg.JSON(); err != nil {
			t.Errorf("%d clients: the registry does not render as JSON: %v", clients, err)
		}
		var keys []string
		for _, line := range strings.Split(metrics.MaskTimings(reg.Snapshot()), "\n") {
			if key, _, ok := strings.Cut(line, " "); ok && line[0] != '#' {
				keys = append(keys, key)
			}
		}
		return keys
	}
	small, large := keys(60), keys(600)
	if len(small) != 11 || !slices.Equal(small, large) {
		t.Fatalf("series keys depend on the population: %d at 60 clients, %d at 600, want the same 11\n%q\n%q",
			len(small), len(large), small, large)
	}
	for _, key := range small {
		if strings.Contains(key, `group="`) {
			t.Errorf("series %s is labelled by group", key)
		}
	}
}
