package fednode

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sampling"
)

// controlPlaneLines keeps the snapshot lines the Alg. 1 control plane
// publishes: the formation's group count and Γ_p, and the round count.
func controlPlaneLines(snapshot string) string {
	families := []string{"fel_core_groups ", "fel_core_gamma_p ", "fel_core_rounds_total "}
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

// TestControlPlaneConformance is the executor table: it holds the networked
// executor to the in-process one. On the same System and seed, the
// fel_core_groups, fel_core_gamma_p and fel_core_rounds_total lines the two
// publish must be byte-equal and Report.Participation must equal
// Result.Participation — same formation, same p_g, the same groups selected
// as often.
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

				tcfg := jcfg.TrainConfig(metrics.New())
				res := core.Train(sys, tcfg)
				want := controlPlaneLines(tcfg.Metrics.Snapshot())

				reg := metrics.New()
				jcfg.Meter = NewMeter(reg)
				rep, err := RunJob(NewMemNetwork(), sys, jcfg, "")
				if err != nil {
					t.Fatalf("RunJob: %v", err)
				}
				got := controlPlaneLines(reg.Snapshot())

				if strings.Count(want, "\n") != 3 || !strings.Contains(want, "fel_core_rounds_total 4") {
					t.Fatalf("trainer published no control-plane series:\n%s", want)
				}
				if got != want {
					t.Fatalf("control-plane series differ\n--- core.Train ---\n%s--- fednode.RunJob ---\n%s", want, got)
				}
				if len(res.Participation) == 0 || !maps.Equal(rep.Participation, res.Participation) {
					t.Fatalf("participation differs\ncore.Train:     %v\nfednode.RunJob: %v", res.Participation, rep.Participation)
				}
			})
		}
	}

	// What the networked executor inherits from the one round loop rather
	// than implements: the Trainer's dropout counter under a reset
	// connection, the one evaluation schedule, and final weights that do not
	// depend on how many processors fold them.
	t.Run("dropouts", func(t *testing.T) {
		sys := testSystem(12, 5)
		jcfg := testJobConfig()
		jcfg.GlobalRounds = 2
		jcfg.StragglerTimeout = 2 * time.Second
		nw, victim := dropFirstMember(t, sys, &jcfg, 0)
		reg := metrics.New()
		jcfg.Meter = NewMeter(reg)
		rep, err := RunJob(nw, sys, jcfg, "")
		if err != nil {
			t.Fatalf("RunJob: %v", err)
		}
		checkCasualty(t, rep, victim)
		if got := reg.CounterValue("fel_core_dropouts_total"); rep.Dropouts != 1 || got != int64(rep.Dropouts) {
			t.Fatalf("fel_core_dropouts_total %d, Report.Dropouts %d, want both 1", got, rep.Dropouts)
		}
	})

	t.Run("eval-schedule", func(t *testing.T) {
		sys := testSystem(12, 1)
		jcfg := testJobConfig()
		jcfg.GlobalRounds, jcfg.EvalEvery = 6, 4
		rep, err := RunJob(NewMemNetwork(), sys, jcfg, "")
		if err != nil {
			t.Fatalf("RunJob: %v", err)
		}
		ref := core.Train(sys, jcfg.TrainConfig(nil))
		for i, r := range rep.Records {
			evaluated := i%4 == 0 || i == 5
			if (r.Accuracy != -1) != evaluated || (r.Loss != -1) != evaluated {
				t.Errorf("round %d: accuracy %v loss %v, evaluated should be %v", i, r.Accuracy, r.Loss, evaluated)
			}
			if (ref.Records[i].Accuracy != -1) != evaluated {
				t.Errorf("round %d: in-process accuracy %v disagrees with the schedule", i, ref.Records[i].Accuracy)
			}
		}
	})

	t.Run("gomaxprocs", func(t *testing.T) {
		run := func(procs int) []float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rep, err := RunJob(NewMemNetwork(), testSystem(12, 5), testJobConfig(), "")
			if err != nil {
				t.Fatalf("RunJob at GOMAXPROCS %d: %v", procs, err)
			}
			return rep.Params
		}
		one, eight := run(1), run(8)
		if len(one) != len(eight) {
			t.Fatalf("param dims differ: %d vs %d", len(one), len(eight))
		}
		for j := range one {
			if math.Float64bits(one[j]) != math.Float64bits(eight[j]) {
				t.Fatalf("param %d: %x at GOMAXPROCS 1, %x at 8", j, math.Float64bits(one[j]), math.Float64bits(eight[j]))
			}
		}
	})
}
