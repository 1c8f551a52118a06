package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/grouping"
)

// sameBits fails the test unless a and b are bit-for-bit identical.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x (%.17g vs %.17g)",
				what, i, math.Float64bits(a[i]), math.Float64bits(b[i]), a[i], b[i])
		}
	}
}

// TestTrainerStepwiseMatchesTrain pins the refactor contract: driving the
// Trainer by hand is the same computation as Train (which is now a wrapper,
// but this keeps anyone from specializing one path without the other).
func TestTrainerStepwiseMatchesTrain(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalRounds = 4
	want := Train(testSystem(10, 0.5, 2), cfg)

	tr := NewTrainer(testSystem(10, 0.5, 2), cfg)
	steps := 0
	for !tr.Done() {
		rec := tr.Step()
		if rec.Round != steps {
			t.Fatalf("step %d returned round %d", steps, rec.Round)
		}
		steps++
	}
	got := tr.Finish()
	if steps != 4 || tr.Round() != 4 {
		t.Fatalf("ran %d steps, Round()=%d, want 4", steps, tr.Round())
	}
	sameBits(t, "params", want.Params, got.Params)
	if want.TotalCost != got.TotalCost || want.FinalAccuracy != got.FinalAccuracy {
		t.Fatal("stepwise run diverged from Train in cost or accuracy")
	}
}

// TestResumeBitIdentical is the checkpoint/resume contract: exporting the
// trainer's state at an arbitrary round boundary and rebuilding from it
// (fresh System, fresh Config, fresh updater) must finish with final
// weights bit-identical to the uninterrupted run — with every stateful
// feature exercised: dropout, regrouping, SCAFFOLD variates.
func TestResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"sgd", func(cfg *Config) {}},
		{"dropout-regroup", func(cfg *Config) {
			cfg.DropoutProb = 0.25
			cfg.RegroupEvery = 2
		}},
		{"scaffold", func(cfg *Config) {
			cfg.Local = &ScaffoldUpdater{NumClients: 12}
			cfg.DropoutProb = 0.2
		}},
		{"scaffold-regroup", func(cfg *Config) {
			cfg.Local = &ScaffoldUpdater{NumClients: 12}
			cfg.RegroupEvery = 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			makeCfg := func() Config {
				cfg := testConfig()
				cfg.GlobalRounds = 7
				tc.mod(&cfg)
				return cfg
			}
			full := Train(testSystem(12, 0.5, 3), makeCfg())

			for _, stopAt := range []int{1, 4} {
				tr := NewTrainer(testSystem(12, 0.5, 3), makeCfg())
				for tr.Round() < stopAt {
					tr.Step()
				}
				st, err := tr.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				// The snapshot must be detached: keep stepping the original
				// trainer and it must not disturb the resumed run.
				for !tr.Done() {
					tr.Step()
				}

				resumed, err := NewTrainerResumed(testSystem(12, 0.5, 3), makeCfg(), st)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Round() != stopAt {
					t.Fatalf("resumed at round %d, want %d", resumed.Round(), stopAt)
				}
				for !resumed.Done() {
					resumed.Step()
				}
				res := resumed.Finish()
				sameBits(t, "final params", full.Params, res.Params)
				if res.TotalCost != full.TotalCost || res.FinalAccuracy != full.FinalAccuracy {
					t.Fatalf("stop@%d: cost/accuracy diverged: %v/%v vs %v/%v",
						stopAt, res.TotalCost, res.FinalAccuracy, full.TotalCost, full.FinalAccuracy)
				}
				if res.Dropouts != full.Dropouts || res.UplinkBytes != full.UplinkBytes {
					t.Fatalf("stop@%d: dropout/uplink accounting diverged", stopAt)
				}
				if len(res.Records) != len(full.Records) {
					t.Fatalf("stop@%d: %d records, want %d", stopAt, len(res.Records), len(full.Records))
				}
				for i := range full.Records {
					if res.Records[i] != full.Records[i] {
						t.Fatalf("stop@%d: record %d diverged: %+v vs %+v", stopAt, i, res.Records[i], full.Records[i])
					}
				}
				for id, n := range full.Participation {
					if res.Participation[id] != n {
						t.Fatalf("stop@%d: participation[%d] = %d, want %d", stopAt, id, res.Participation[id], n)
					}
				}
			}
		})
	}
}

// TestExportStateRejectsCompressor: error-feedback residuals live inside
// compressor implementations with no serialization surface, so checkpoints
// of compressed runs must be refused loudly rather than resumed wrong.
func TestExportStateRejectsCompressor(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalRounds = 2
	cfg.NewCompressor = func() compress.Compressor { return compress.NewTopK(10) }
	tr := NewTrainer(testSystem(10, 0.5, 2), cfg)
	tr.Step()
	if _, err := tr.ExportState(); err == nil {
		t.Fatal("ExportState accepted a run with a compressor")
	}
	if _, err := NewTrainerResumed(testSystem(10, 0.5, 2), cfg, &TrainerState{}); err == nil {
		t.Fatal("NewTrainerResumed accepted a config with a compressor")
	}
}

// TestResumeRejectsMismatchedSnapshot guards the obvious foot-guns: wrong
// model size and a snapshot claiming more rounds than the config allows.
func TestResumeRejectsMismatchedSnapshot(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalRounds = 3
	tr := NewTrainer(testSystem(10, 0.5, 2), cfg)
	tr.Step()
	st, err := tr.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	bad := *st
	bad.Params = st.Params[:len(st.Params)-1]
	if _, err := NewTrainerResumed(testSystem(10, 0.5, 2), cfg, &bad); err == nil {
		t.Fatal("resume accepted a truncated parameter vector")
	}
	bad = *st
	bad.Round = cfg.GlobalRounds + 1
	if _, err := NewTrainerResumed(testSystem(10, 0.5, 2), cfg, &bad); err == nil {
		t.Fatal("resume accepted a snapshot from beyond GlobalRounds")
	}
	bad = *st
	bad.Scaffold = &ScaffoldCheckpoint{C: make([]float64, len(st.Params))}
	if _, err := NewTrainerResumed(testSystem(10, 0.5, 2), cfg, &bad); err == nil {
		t.Fatal("resume accepted SCAFFOLD state without a *ScaffoldUpdater")
	}
}

// flakyExecutor is the substitute the Executor seam exists for: it hands
// every call to a real engine until call failAt, which fails.
type flakyExecutor struct {
	Executor
	failAt, calls int
	err           error
}

func (f *flakyExecutor) RunGroups(t int, groups []*grouping.Group, selected []int, params []float64) ([]GroupUpdate, error) {
	f.calls++
	if f.calls > f.failAt {
		return nil, f.err
	}
	return f.Executor.RunGroups(t, groups, selected, params)
}

// TestExecutorErrorEndsRun drives a Trainer over an executor that fails in
// its third round: the failed Step returns the zero record and leaves the
// global vector untouched, Err reports the cause, Done turns true, and a
// further Step neither calls the executor nor moves anything — the
// bufio.Scanner contract fednode's cloud reads a transport failure through.
func TestExecutorErrorEndsRun(t *testing.T) {
	cfg := testConfig()
	cfg.GlobalRounds = 5
	sys := testSystem(10, 0.5, 2)
	boom := errors.New("edge 1 hung up")
	exec := &flakyExecutor{Executor: NewExecutor(sys, cfg), failAt: 2, err: boom}
	tr, err := NewTrainerOn(sys, cfg, exec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewTrainer(testSystem(10, 0.5, 2), cfg)
	for i := 0; i < 2; i++ {
		if got, want := tr.Step(), ref.Step(); got != want {
			t.Fatalf("round %d through the seam: record %+v, NewTrainer's %+v", i, got, want)
		}
	}
	sameBits(t, "params after two rounds through the seam", ref.Params(), tr.Params())
	if tr.Err() != nil || tr.Done() {
		t.Fatalf("healthy run: Err %v, Done %v", tr.Err(), tr.Done())
	}

	before := append([]float64(nil), tr.Params()...)
	for attempt := 0; attempt < 2; attempt++ {
		if rec := tr.Step(); rec != (RoundRecord{}) {
			t.Fatalf("attempt %d: failed Step returned %+v, want the zero record", attempt, rec)
		}
		if !errors.Is(tr.Err(), boom) || !tr.Done() || tr.Round() != 2 {
			t.Fatalf("attempt %d: Err %v, Done %v, Round %d; want the executor's error, true, 2", attempt, tr.Err(), tr.Done(), tr.Round())
		}
		sameBits(t, "params after the failed Step", before, tr.Params())
		if exec.calls != 3 {
			t.Fatalf("attempt %d: executor called %d times, want 3 (a Step after the failure is a no-op)", attempt, exec.calls)
		}
	}
}

// TestNewTrainerOnRejectsWithErrors holds the boundary to errors: what
// NewTrainer panics on, NewTrainerOn and NewTrainerResumed return — and a
// caller that pins the formation and fixes the selections owes neither
// Grouping nor SampleGroups.
func TestNewTrainerOnRejectsWithErrors(t *testing.T) {
	sys := testSystem(8, 0.5, 11)
	for name, mutate := range map[string]func(*Config){
		"T":           func(c *Config) { c.GlobalRounds = 0 },
		"LR":          func(c *Config) { c.LR = 0 },
		"LR NaN":      func(c *Config) { c.LR = math.NaN() },
		"LR +Inf":     func(c *Config) { c.LR = math.Inf(1) },
		"Dropout NaN": func(c *Config) { c.DropoutProb = math.NaN() },
		"S":           func(c *Config) { c.SampleGroups = 0 },
		"Grouping":    func(c *Config) { c.Grouping = nil },
		"CostProfile": func(c *Config) { c.CostProfile = cost.Profile{} },
		"InitParams":  func(c *Config) { c.InitParams = []float64{1, 2, 3} },
		"Async":       func(c *Config) { c.Async.Mode = async.Buffered; c.Async.BufferFrac = 2 },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if tr, err := NewTrainerOn(sys, cfg, NewExecutor(sys, cfg), nil, nil); err == nil || tr != nil {
			t.Errorf("%s: NewTrainerOn returned (%v, %v), want an error", name, tr, err)
		}
		if tr, err := NewTrainerResumed(sys, cfg, &TrainerState{}); err == nil || tr != nil {
			t.Errorf("%s: NewTrainerResumed returned (%v, %v), want an error", name, tr, err)
		}
	}
	cfg := testConfig()
	cfg.GlobalRounds = 1
	pinned := NewTrainer(sys, cfg).Groups()
	cfg.Grouping, cfg.SampleGroups = nil, 0
	tr, err := NewTrainerOn(sys, cfg, NewExecutor(sys, cfg), pinned, [][]int{{0}})
	if err != nil {
		t.Fatalf("pinned groups and fixed selections without Grouping or SampleGroups: %v", err)
	}
	if tr.Step(); tr.SelectedClients() != pinned[0].Size() {
		t.Fatalf("fixed selection trained %d clients, group 0 has %d", tr.SelectedClients(), pinned[0].Size())
	}
}
