package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/sampling"
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

			// Stopping at 6 has dropout-regroup's resume skip the regroup at
			// round 2 and form only round 4's.
			for _, stopAt := range []int{1, 4, 6} {
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

// TestResumeFormsOnce: a resume forms the initial formation and the one in
// force at the snapshot, not every regroup before it — an uninterrupted run
// of the same schedule times 1 + 3 formations over 7 rounds.
func TestResumeFormsOnce(t *testing.T) {
	makeCfg := func(reg *metrics.Registry) Config {
		cfg := testConfig()
		cfg.GlobalRounds = 7
		cfg.RegroupEvery = 2
		cfg.Metrics = reg
		return cfg
	}
	full := metrics.New()
	tr := NewTrainer(testSystem(12, 0.5, 3), makeCfg(full))
	for tr.Round() < 6 {
		tr.Step()
	}
	st, err := tr.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for !tr.Done() {
		tr.Step()
	}
	resumed := metrics.New()
	if _, err := NewTrainerResumed(testSystem(12, 0.5, 3), makeCfg(resumed), st); err != nil {
		t.Fatal(err)
	}
	for reg, want := range map[*metrics.Registry]string{
		full:    "fel_core_formation_seconds_count 4",
		resumed: "fel_core_formation_seconds_count 2",
	} {
		if snap := reg.Snapshot(); !strings.Contains(snap, want+"\n") {
			t.Errorf("snapshot is missing %q:\n%s", want, snap)
		}
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
		"MinGS":       func(c *Config) { c.Grouping = grouping.CoVGrouping{Config: grouping.Config{MinGS: 0}} },
		"RG size":     func(c *Config) { c.Grouping = grouping.RandomGrouping{} },
		"Sampling":    func(c *Config) { c.Sampling = sampling.Method(99) },
		"Weights":     func(c *Config) { c.Weights = sampling.WeightScheme(99) },
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

// FuzzTrainerConfig holds the boundary between validate and a run over the
// numeric Config fields on a 12-client system: a configuration validate
// rejects is an error from NewTrainerOn, never a panic, and one it accepts
// steps three rounds without a panic and ends with finite parameters or a
// non-nil Err. The counts are taken modulo small bounds, signs kept, so zero
// and negative values reach validate while an accepted run stays cheap; LR,
// DropoutProb and BufferFrac are raw floats, NaN and ±Inf included; the
// sampling method, weight scheme and CoVGrouping's MinGS reach one past
// their valid ranges on both sides. Above LR 1 local SGD on this model may
// diverge on its own, so there only the absence of a panic is held.
func FuzzTrainerConfig(f *testing.F) {
	f.Add(int8(3), int8(2), int8(1), int8(16), 0.05, int8(3), int8(0), int8(0), uint8(0), 0.0, int8(0), 0.0, int8(0), int8(3), int8(0), int8(3))
	f.Add(int8(3), int8(2), int8(2), int8(0), 0.1, int8(12), int8(2), int8(2), uint8(1), 0.3, int8(1), 0.5, int8(0), int8(1), int8(2), int8(2))
	f.Add(int8(4), int8(1), int8(1), int8(5), 0.5, int8(2), int8(-1), int8(1), uint8(2), 1.5, int8(2), 0.0, int8(3), int8(0), int8(1), int8(5))
	f.Add(int8(0), int8(-1), int8(0), int8(-3), math.Inf(1), int8(0), int8(0), int8(0), uint8(0), math.NaN(), int8(7), 2.0, int8(0), int8(4), int8(-1), int8(0))
	f.Add(int8(3), int8(2), int8(1), int8(16), 0.05, int8(3), int8(0), int8(0), uint8(0), 0.0, int8(0), 0.0, int8(0), int8(-1), int8(3), int8(-1))
	sys := testSystem(12, 0.5, 3)
	f.Fuzz(func(t *testing.T, rounds, k, e, batch int8, lr float64, s, evalEvery, regroupEvery int8,
		par uint8, dropout float64, mode int8, bufferFrac float64, deadline int8, method, scheme, minGS int8) {
		cfg := testConfig()
		cfg.GlobalRounds = int(rounds) % 6
		cfg.GroupRounds = int(k) % 4
		cfg.LocalEpochs = int(e) % 4
		cfg.BatchSize = int(batch)
		cfg.LR = lr
		cfg.SampleGroups = int(s) % 16
		cfg.EvalEvery = int(evalEvery)
		cfg.RegroupEvery = int(regroupEvery) % 4
		cfg.MaxParallel = []int{0, 1, 8}[par%3]
		cfg.DropoutProb = dropout
		cfg.Async.Mode = async.Mode(mode)
		cfg.Async.BufferFrac = bufferFrac
		cfg.Async.DeadlineTicks = int64(deadline)
		cfg.Sampling = sampling.Method(int(method) % 5)
		cfg.Weights = sampling.WeightScheme(int(scheme) % 4)
		cfg.Grouping = grouping.CoVGrouping{Config: grouping.Config{MinGS: int(minGS) % 6, MaxCoV: 0.5, MergeLeftover: true}}
		tr, err := NewTrainerOn(sys, cfg, NewExecutor(sys, cfg), nil, nil)
		if verr := validate(sys, cfg, false, false); verr != nil {
			if err == nil {
				t.Fatalf("validate rejects %+v (%v), NewTrainerOn accepted it", cfg, verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("validate accepts %+v, NewTrainerOn returned %v", cfg, err)
		}
		for i := 0; i < 3; i++ {
			tr.Step()
		}
		if tr.Err() != nil || cfg.LR > 1 {
			return
		}
		for i, v := range tr.Params() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%+v: param %d is %v after three rounds", cfg, i, v)
			}
		}
	})
}
