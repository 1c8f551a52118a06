package core

import (
	"math"
	"strconv"
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

// TestRegroupClearsVanishedGroupGauges: a regroup that forms fewer groups
// leaves no stale per-group gauge behind. Every fel_core_group_{prob,cov,size}
// series either describes a group of the formation in force or reads as an
// empty group (probability 0, CoV +Inf, size 0), so the exported
// probabilities sum to 1 as the sampling-frequency audit assumes, and the
// registry still renders as JSON (bench's traced runs read it that way).
func TestRegroupClearsVanishedGroupGauges(t *testing.T) {
	cfg := testConfig()
	cfg.Sampling = sampling.RCoV
	cfg.Grouping = grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MaxCoV: 0.3, MergeLeftover: true}}
	cfg.RegroupEvery = 1
	reg := metrics.New()
	cfg.Metrics = reg
	tr := NewTrainer(testSystem(200, 0.5, 2), cfg)
	for tr.Round() <= 7 {
		tr.Step()
	}

	live := map[string]*grouping.Group{}
	for _, g := range tr.Groups() {
		live[strconv.Itoa(g.ID)] = g
	}
	series := map[string]map[string]float64{} // family -> group label -> value
	for _, line := range strings.Split(reg.Snapshot(), "\n") {
		name, rest, ok := strings.Cut(line, `{group="`)
		if !ok || !strings.HasPrefix(name, "fel_core_group_") || name == "fel_core_group_selected_total" {
			continue
		}
		id, val, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if series[name] == nil {
			series[name] = map[string]float64{}
		}
		series[name][id] = v
	}
	sizes := series["fel_core_group_size"]
	vanished := 0
	for id := range sizes {
		if live[id] == nil {
			vanished++
		}
	}
	if vanished == 0 {
		t.Fatalf("no regroup formed fewer groups than an earlier one (%d series, %d live groups); the test checks nothing", len(sizes), len(live))
	}
	sum := 0.0
	for id, p := range series["fel_core_group_prob"] {
		sum += p
		cov, size := series["fel_core_group_cov"][id], sizes[id]
		if g := live[id]; g != nil {
			if cov != g.CoV() || size != float64(g.Size()) {
				t.Errorf("group %s gauges cov %v size %v, the live group has %v and %d", id, cov, size, g.CoV(), g.Size())
			}
		} else if p != 0 || !math.IsInf(cov, 1) || size != 0 {
			t.Errorf("group %s is not in the formation in force but reads prob %v cov %v size %v, want 0 +Inf 0", id, p, cov, size)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fel_core_group_prob sums to %.6f over %d series, want 1", sum, len(series["fel_core_group_prob"]))
	}
	if _, err := reg.JSON(); err != nil {
		t.Errorf("the registry of a run with a vanished group does not render as JSON: %v", err)
	}
}
