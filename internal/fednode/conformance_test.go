package fednode

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sampling"
)

// controlPlaneLines keeps the snapshot lines the Alg. 1 control plane
// publishes: formation (size, CoV), p_g, and the per-round selections.
func controlPlaneLines(snapshot string) string {
	families := []string{
		"fel_core_group_prob{", "fel_core_group_cov{", "fel_core_group_size{",
		"fel_core_group_selected_total{", "fel_core_rounds_total ",
	}
	var b strings.Builder
	for _, line := range strings.Split(snapshot, "\n") {
		for _, f := range families {
			if strings.HasPrefix(line, f) {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestControlPlaneConformance holds the networked cloud to the in-process
// trainer's control plane: on the same System and seed, every
// fel_core_group_{prob,cov,size,selected_total} and fel_core_rounds_total
// line the two executors publish must be byte-equal — same formation, same
// p_g, same S_t every round.
func TestControlPlaneConformance(t *testing.T) {
	schemes := []struct {
		m sampling.Method
		w sampling.WeightScheme
	}{
		{sampling.ESRCoV, sampling.Biased},
		{sampling.RCoV, sampling.Unbiased},
		{sampling.Random, sampling.Stabilized},
	}
	for _, seed := range []uint64{1, 42, 977} {
		for _, sc := range schemes {
			t.Run(fmt.Sprintf("seed%d/%s/%s", seed, sc.m, sc.w), func(t *testing.T) {
				sys := testSystem(14, seed)
				jcfg := testJobConfig()
				jcfg.GlobalRounds = 4
				jcfg.Seed, jcfg.Sampling, jcfg.Weights = seed, sc.m, sc.w

				tcfg := trainConfig(jcfg)
				tcfg.Metrics = metrics.New()
				core.Train(sys, tcfg)
				want := controlPlaneLines(metrics.MaskTimings(tcfg.Metrics.Snapshot()))

				reg := metrics.New()
				jcfg.Meter = NewMeter(reg)
				if _, err := RunJob(NewMemNetwork(), sys, jcfg, ""); err != nil {
					t.Fatalf("RunJob: %v", err)
				}
				got := controlPlaneLines(metrics.MaskTimings(reg.Snapshot()))

				if !strings.Contains(want, "fel_core_group_selected_total") || !strings.Contains(want, "fel_core_rounds_total 4") {
					t.Fatalf("trainer published no control-plane series:\n%s", want)
				}
				if got != want {
					t.Fatalf("control-plane series differ\n--- core.Train ---\n%s--- fednode.RunJob ---\n%s", want, got)
				}
			})
		}
	}
}
