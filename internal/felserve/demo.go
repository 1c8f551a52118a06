package felserve

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// KillCloudReport summarizes one kill-the-cloud-mid-run exercise.
type KillCloudReport struct {
	// Jobs lists the job names, sorted.
	Jobs []string
	// KilledAtRound maps job name to the round the crashed cloud had
	// published when it died; ResumedFromRound to the round its checkpoint
	// held (the gap is the recomputed work).
	KilledAtRound    map[string]int
	ResumedFromRound map[string]int
	// FinalAccuracy maps job name to the recovered run's final accuracy.
	FinalAccuracy map[string]float64
	// BitIdentical is true when every recovered job's final weights match
	// the uninterrupted reference bit for bit.
	BitIdentical bool
}

// demoSpecs is the two-tenant workload of the kill-cloud exercise: a plain
// SGD job and a SCAFFOLD job with client dropout, sized so several waves
// fit between checkpoint and crash.
func demoSpecs(seed uint64) []JobSpec {
	return []JobSpec{
		{
			Name: "tenant-a", Clients: 12, Edges: 2,
			SystemSeed: seed, Seed: seed + 100,
			Rounds: 12, GroupRounds: 2, LocalEpochs: 1,
			BatchSize: 16, LR: 0.05, SampleGroups: 2,
		},
		{
			Name: "tenant-b", Clients: 10, Edges: 2,
			SystemSeed: seed + 1, Seed: seed + 200,
			Rounds: 12, GroupRounds: 2, LocalEpochs: 1,
			BatchSize: 16, LR: 0.05, SampleGroups: 2,
			Scaffold: true, DropoutProb: 0.2,
		},
	}
}

// KillCloudDemo is the chaos scenario behind `felnode -chaos kill-cloud`:
// a cloud serving two concurrent jobs is crashed abruptly after a fixed
// number of scheduling waves — past the last checkpoint, so in-memory
// rounds are lost — then a fresh cloud process recovers both jobs from
// their checkpoint files and runs them to completion. The recovered final
// weights must be bit-identical (math.Float64bits) to an uninterrupted
// reference run of the same specs.
func KillCloudDemo(dir string, seed uint64, logf func(format string, args ...any)) (*KillCloudReport, error) {
	specs := demoSpecs(seed)

	// Uninterrupted reference: same specs, no durability, run to the end.
	ref := map[string]*core.Result{}
	refSvc := New(Config{StartHeld: true, Logf: logf})
	for _, spec := range specs {
		if _, err := refSvc.Submit(spec); err != nil {
			return nil, err
		}
	}
	refSvc.Start()
	refSvc.Wait()
	for _, spec := range specs {
		res, err := refSvc.Job(spec.Name).Wait()
		if err != nil {
			return nil, err
		}
		ref[spec.Name] = res
	}
	if err := refSvc.Close(); err != nil {
		return nil, err
	}

	// Crash run: checkpoint every 2 rounds, hard-halt after 5 waves — the
	// jobs are at round 5 in memory but round 4 on disk, so the recovery
	// must recompute the lost round identically.
	crashed := New(Config{Dir: dir, CheckpointEvery: 2, HaltAfterWaves: 5, StartHeld: true, Logf: logf})
	killedAt := map[string]int{}
	for _, spec := range specs {
		if _, err := crashed.Submit(spec); err != nil {
			return nil, err
		}
	}
	crashed.Start()
	<-crashed.Halted()
	for _, spec := range specs {
		killedAt[spec.Name] = crashed.Job(spec.Name).Round()
	}
	crashed.Kill()

	// Restarted cloud: recover everything the checkpoint directory holds. The
	// scheduler stays parked until the resumed rounds are recorded — a
	// running scheduler would already be advancing j.Round().
	recoveredSvc := New(Config{Dir: dir, CheckpointEvery: 2, StartHeld: true, Logf: logf})
	jobs, err := recoveredSvc.Recover()
	if err != nil {
		return nil, err
	}
	if len(jobs) != len(specs) {
		return nil, fmt.Errorf("felserve: recovered %d jobs, want %d", len(jobs), len(specs))
	}
	rep := &KillCloudReport{
		KilledAtRound:    killedAt,
		ResumedFromRound: map[string]int{},
		FinalAccuracy:    map[string]float64{},
		BitIdentical:     true,
	}
	for _, j := range jobs {
		rep.Jobs = append(rep.Jobs, j.Name())
		rep.ResumedFromRound[j.Name()] = j.Round()
	}
	recoveredSvc.Start()
	recoveredSvc.Wait()
	for _, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			return nil, err
		}
		rep.FinalAccuracy[j.Name()] = res.FinalAccuracy
		want := ref[j.Name()]
		if len(res.Params) != len(want.Params) {
			rep.BitIdentical = false
			continue
		}
		for i := range res.Params {
			if math.Float64bits(res.Params[i]) != math.Float64bits(want.Params[i]) {
				rep.BitIdentical = false
				break
			}
		}
	}
	if err := recoveredSvc.Close(); err != nil {
		return nil, err
	}
	if !rep.BitIdentical {
		return rep, fmt.Errorf("felserve: recovered weights are not bit-identical to the uninterrupted run")
	}
	return rep, nil
}
