package core

import (
	"testing"

	"repro/internal/sampling"
)

func TestTrainWithDropout(t *testing.T) {
	sys := testSystem(12, 0.5, 33)
	cfg := testConfig()
	cfg.GlobalRounds = 8
	cfg.DropoutProb = 0.3
	res := Train(sys, cfg)
	if res.Dropouts == 0 {
		t.Fatal("expected some dropouts at p=0.3")
	}
	// Training still converges above chance despite losses.
	if res.FinalAccuracy <= 0.3 {
		t.Fatalf("dropout run accuracy %.3f", res.FinalAccuracy)
	}
	// No dropouts when disabled.
	cfg.DropoutProb = 0
	if got := Train(sys, cfg); got.Dropouts != 0 {
		t.Fatalf("dropouts recorded with p=0: %d", got.Dropouts)
	}
}

func TestTrainWithTotalDropoutStillFinishes(t *testing.T) {
	// p=0.99: almost every update lost; the run must not NaN or hang, and
	// the model should stay near its initialization when nothing arrives.
	sys := testSystem(8, 0.5, 34)
	cfg := testConfig()
	cfg.GlobalRounds = 3
	cfg.DropoutProb = 0.99
	res := Train(sys, cfg)
	if res.RoundsRun != 3 {
		t.Fatalf("run stopped at %d rounds", res.RoundsRun)
	}
	for _, p := range res.Params {
		if p != p { // NaN check
			t.Fatal("NaN parameters after total dropout")
		}
	}
}

func TestParticipationTracking(t *testing.T) {
	sys := testSystem(10, 0.5, 40)
	cfg := testConfig()
	cfg.GlobalRounds = 6
	res := Train(sys, cfg)
	if len(res.Participation) == 0 {
		t.Fatal("no participation recorded")
	}
	total := 0
	for id, n := range res.Participation {
		if n <= 0 {
			t.Fatalf("client %d recorded %d participations", id, n)
		}
		total += n
	}
	// Each round trains SampleGroups groups; total client-rounds is at
	// least rounds × min group size.
	if total < cfg.GlobalRounds*cfg.SampleGroups*3 {
		t.Fatalf("implausibly low participation total %d", total)
	}
	if up := res.UniqueParticipants(); up == 0 || up > len(sys.Clients) {
		t.Fatalf("unique participants %d", up)
	}
	fi := res.FairnessIndex(sys)
	if fi <= 0 || fi > 1 {
		t.Fatalf("fairness index %v", fi)
	}
}

func TestFairnessRandomBeatsESRCoV(t *testing.T) {
	// Uniform sampling spreads participation; ESRCoV concentrates it — the
	// fairness trade-off the paper's future work calls out.
	run := func(m sampling.Method) float64 {
		sys := testSystem(16, 0.3, 41)
		cfg := testConfig()
		cfg.GlobalRounds = 12
		cfg.Sampling = m
		return Train(sys, cfg).FairnessIndex(sys)
	}
	random := run(sampling.Random)
	esr := run(sampling.ESRCoV)
	if random < esr {
		t.Fatalf("Random fairness %v should be >= ESRCoV %v", random, esr)
	}
}
