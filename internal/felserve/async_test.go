package felserve

import (
	"testing"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/leakcheck"
)

// asyncJobSpec is the checkpoint-format workout for the async frame: a
// buffered FedBuff job with staleness discounting and straggler delays, so
// kind 6 appears.
func asyncJobSpec() JobSpec {
	return JobSpec{
		Name: "async-job", Clients: 10, Edges: 2,
		SystemSeed: 21, Seed: 23,
		Rounds: 8, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 16, LR: 0.05, SampleGroups: 2,
		DropoutProb: 0.2,
		Async: async.Config{
			Mode: async.Buffered, Alpha: 0.5, BufferFrac: 0.5,
			Delays: async.StragglerStorm(),
		},
	}
}

// TestAsyncCheckpointRoundTrip: the async frame vocabulary survives
// save/load bit for bit — spec knobs and logical-clock totals.
func TestAsyncCheckpointRoundTrip(t *testing.T) {
	spec := asyncJobSpec()
	tr := core.NewTrainer(spec.System(), spec.TrainConfig(nil))
	for tr.Round() < 3 {
		tr.Step()
	}
	st, err := tr.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if _, err := SaveCheckpoint(dir, spec, st); err != nil {
		t.Fatal(err)
	}
	gotSpec, gotSt, err := LoadCheckpoint(checkpointPath(dir, spec.Name))
	if err != nil {
		t.Fatal(err)
	}
	if gotSpec != spec {
		t.Fatalf("async spec round trip: got %+v, want %+v", gotSpec, spec)
	}
	if gotSt.LogicalTicks != st.LogicalTicks || gotSt.Carryovers != st.Carryovers || gotSt.LateDrops != st.LateDrops {
		t.Fatalf("clock totals corrupted: %d/%d/%d vs %d/%d/%d",
			gotSt.LogicalTicks, gotSt.Carryovers, gotSt.LateDrops,
			st.LogicalTicks, st.Carryovers, st.LateDrops)
	}

	// The loaded snapshot must actually resume: rebuild the trainer and
	// step one round without error.
	tr2, err := core.NewTrainerResumed(gotSpec.System(), gotSpec.TrainConfig(nil), gotSt)
	if err != nil {
		t.Fatal(err)
	}
	tr2.Step()
}

// asyncDemoSpecs is the two-tenant async workload for the kill-and-resume
// exercise: a buffered job and a semi-sync job with
// carryover pressure, both under straggler-storm delays.
func asyncDemoSpecs(seed uint64) []JobSpec {
	return []JobSpec{
		{
			Name: "buffered", Clients: 12, Edges: 2,
			SystemSeed: seed, Seed: seed + 100,
			Rounds: 8, GroupRounds: 2, LocalEpochs: 1,
			BatchSize: 16, LR: 0.05, SampleGroups: 2,
			DropoutProb: 0.2,
			Async: async.Config{
				Mode: async.Buffered, Alpha: 0.5, BufferFrac: 0.5,
				Delays: async.StragglerStorm(),
			},
		},
		{
			Name: "semisync", Clients: 10, Edges: 2,
			SystemSeed: seed + 1, Seed: seed + 200,
			Rounds: 8, GroupRounds: 2, LocalEpochs: 1,
			BatchSize: 16, LR: 0.05, SampleGroups: 2,
			Async: async.Config{
				Mode: async.SemiSync, Alpha: 0.5, DeadlineTicks: 30,
				Delays: async.StragglerStorm(),
			},
		},
	}
}

// TestAsyncKillRecoverBitIdentical is the satellite replay gate at the
// service layer: crash a cloud mid-buffer (past its last checkpoint),
// recover from disk, and the finished jobs must match an uninterrupted
// reference bit for bit — final weights and logical-clock totals, which is
// only possible if the checkpoint's async frame restores exactly.
func TestAsyncKillRecoverBitIdentical(t *testing.T) {
	noLeaks := leakcheck.Check(t)
	specs := asyncDemoSpecs(31)

	ref := map[string]*core.Result{}
	refSvc := New(Config{StartHeld: true, Logf: t.Logf})
	for _, spec := range specs {
		if _, err := refSvc.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	refSvc.Start()
	refSvc.Wait()
	for _, spec := range specs {
		res, err := refSvc.Job(spec.Name).Wait()
		if err != nil {
			t.Fatal(err)
		}
		ref[spec.Name] = res
	}
	if err := refSvc.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash past the last checkpoint: disk holds round 2, memory round 3,
	// so recovery recomputes a lost round from the restored buffer state.
	dir := t.TempDir()
	crashed := New(Config{Dir: dir, CheckpointEvery: 2, HaltAfterWaves: 3, StartHeld: true, Logf: t.Logf})
	for _, spec := range specs {
		if _, err := crashed.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	crashed.Start()
	<-crashed.Halted()
	crashed.Kill()

	// Held until the resume rounds are read: a running scheduler can finish
	// the jobs before the test looks.
	rec := New(Config{Dir: dir, CheckpointEvery: 2, StartHeld: true, Logf: t.Logf})
	jobs, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(specs) {
		t.Fatalf("recovered %d jobs, want %d", len(jobs), len(specs))
	}
	for _, j := range jobs {
		if r := j.Round(); r <= 0 || r >= j.Spec.Rounds {
			t.Fatalf("job %s resumed from round %d, want mid-run", j.Name(), r)
		}
	}
	rec.Start()
	rec.Wait()
	for _, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := ref[j.Name()]
		if !sameBits(res.Params, want.Params) {
			t.Errorf("job %s: recovered weights differ from the uninterrupted run", j.Name())
		}
		if res.LogicalTicks != want.LogicalTicks || res.Carryovers != want.Carryovers || res.LateDrops != want.LateDrops {
			t.Errorf("job %s: clock totals %d/%d/%d, want %d/%d/%d", j.Name(),
				res.LogicalTicks, res.Carryovers, res.LateDrops,
				want.LogicalTicks, want.Carryovers, want.LateDrops)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	noLeaks()
}
