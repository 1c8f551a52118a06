package felserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fednode"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// waitGoroutines fails the test if the goroutine count does not settle back
// to (near) its pre-run level — a leaked accept loop, subscriber handler, or
// scheduler would hold it up.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before run, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestKillCloudResume is the tentpole acceptance check: a cloud serving two
// concurrent jobs is crashed past its last checkpoint, restarted, and must
// finish every job with weights bit-identical to an uninterrupted run — with
// no goroutines left behind by any of the three service instances.
func TestKillCloudResume(t *testing.T) {
	before := runtime.NumGoroutine()
	rep, err := KillCloudDemo(t.TempDir(), 42, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitIdentical {
		t.Fatal("recovered weights differ from the uninterrupted reference")
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rep.Jobs))
	}
	for _, name := range rep.Jobs {
		killed, resumed := rep.KilledAtRound[name], rep.ResumedFromRound[name]
		if resumed >= killed {
			t.Fatalf("job %s: resumed from round %d >= killed at round %d — the crash lost no work, so the test proved nothing", name, resumed, killed)
		}
		if resumed <= 0 {
			t.Fatalf("job %s: resumed from round %d — checkpoint never captured progress", name, resumed)
		}
	}
	waitGoroutines(t, before)
}

// crashThreeTenants runs three tenants uninterrupted for reference, then
// crashes a cloud serving them at round 5, past its round-4 checkpoint: each
// file holds round 2 in slot 0 and round 4 in slot 1. It returns the
// reference results and the checkpoint directory.
func crashThreeTenants(t *testing.T) (map[string]*core.Result, string) {
	t.Helper()
	specs := demoSpecs(11)
	third := specs[0]
	third.Name, third.SystemSeed, third.Seed = "tenant-c", 13, 300
	specs = append(specs, third)

	run := func(cfg Config) *Service {
		cfg.StartHeld = true
		svc := New(cfg)
		for _, spec := range specs {
			if _, err := svc.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		svc.Start()
		return svc
	}
	refSvc := run(Config{})
	refSvc.Wait()
	ref := map[string]*core.Result{}
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

	dir := t.TempDir()
	crashed := run(Config{Dir: dir, CheckpointEvery: 2, HaltAfterWaves: 5})
	<-crashed.Halted()
	crashed.Kill()
	return ref, dir
}

// recoverAndFinish restarts a cloud on dir, checks which jobs Recover
// resumed and from which round, and requires each to finish bit-identically
// to its uninterrupted run. It returns the service's registry.
func recoverAndFinish(t *testing.T, dir string, ref map[string]*core.Result, wantRounds map[string]int) *metrics.Registry {
	t.Helper()
	svc := New(Config{Dir: dir, CheckpointEvery: 2, StartHeld: true, Logf: t.Logf})
	jobs, err := svc.Recover()
	if err != nil {
		t.Fatalf("Recover must survive one corrupt checkpoint: %v", err)
	}
	got := map[string]int{}
	for _, j := range jobs {
		got[j.Name()] = j.Round()
	}
	if fmt.Sprint(got) != fmt.Sprint(wantRounds) {
		t.Fatalf("recovered jobs at rounds %v, want %v", got, wantRounds)
	}
	svc.Start()
	for _, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(res.Params, ref[j.Name()].Params) {
			t.Errorf("job %s: recovered weights differ from the uninterrupted run", j.Name())
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	return svc.Registry()
}

// TestRecoverQuarantinesCorruptCheckpoint crashes a three-tenant cloud,
// corrupts both slots of the middle tenant's checkpoint, and restarts:
// Recover must move the bad file aside, count it, and still resume the two
// tenants on either side of it — each finishing bit-identically to its
// uninterrupted run.
func TestRecoverQuarantinesCorruptCheckpoint(t *testing.T) {
	before := runtime.NumGoroutine()
	ref, dir := crashThreeTenants(t)

	bad := checkpointPath(dir, "tenant-b")
	b, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	size := binary.BigEndian.Uint64(b[len(slotMagic):])
	for i := uint64(0); i < 2; i++ {
		b[slotHeaderSize+i*size+wire.HeaderSize+3] ^= 0x40 // a payload byte of the spec frame
	}
	if err := os.WriteFile(bad, b, 0o600); err != nil {
		t.Fatal(err)
	}

	reg := recoverAndFinish(t, dir, ref, map[string]int{"tenant-a": 4, "tenant-c": 4})
	if n := reg.CounterValue("fel_serve_checkpoints_quarantined_total"); n != 1 {
		t.Errorf("fel_serve_checkpoints_quarantined_total = %v, want 1", n)
	}
	if n := reg.CounterValue("fel_serve_checkpoint_fallbacks_total"); n != 0 {
		t.Errorf("fel_serve_checkpoint_fallbacks_total = %v, want 0", n)
	}
	if _, err := os.Stat(bad + ".bad"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("corrupt checkpoint still in place (stat err %v)", err)
	}
	waitGoroutines(t, before)
}

// TestRecoverFallsBackToOlderSlot crashes the same cloud and halves the
// middle tenant's file, which cuts off its newest slot: Recover must resume
// that tenant from the older slot's round 2 — counted as a fallback, not a
// quarantine — and every tenant must finish bit-identically.
func TestRecoverFallsBackToOlderSlot(t *testing.T) {
	before := runtime.NumGoroutine()
	ref, dir := crashThreeTenants(t)

	torn := checkpointPath(dir, "tenant-b")
	info, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	reg := recoverAndFinish(t, dir, ref, map[string]int{"tenant-a": 4, "tenant-b": 2, "tenant-c": 4})
	if n := reg.CounterValue("fel_serve_checkpoint_fallbacks_total"); n != 1 {
		t.Errorf("fel_serve_checkpoint_fallbacks_total = %v, want 1", n)
	}
	if n := reg.CounterValue("fel_serve_checkpoints_quarantined_total"); n != 0 {
		t.Errorf("fel_serve_checkpoints_quarantined_total = %v, want 0", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("checkpoint directory holds %d entries after every job finished, want 0", len(entries))
	}
	waitGoroutines(t, before)
}

// TestTwoJobIsolation runs the same two specs once concurrently on a single
// service and once serially on dedicated services. Tenant isolation means
// the mode of execution must be unobservable per job: final weights
// bit-identical and the per-job metric registries byte-identical after
// timing masking.
func TestTwoJobIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	specs := demoSpecs(7)

	type out struct {
		res  *core.Result
		snap string
	}
	concurrent := map[string]out{}
	svc := New(Config{StartHeld: true})
	for _, spec := range specs {
		if _, err := svc.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	svc.Start()
	svc.Wait()
	for _, spec := range specs {
		j := svc.Job(spec.Name)
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		concurrent[spec.Name] = out{res: res, snap: metrics.MaskTimings(j.Registry().Snapshot())}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	for _, spec := range specs {
		solo := New(Config{})
		j, err := solo.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := concurrent[spec.Name]
		if !sameBits(res.Params, want.res.Params) {
			t.Errorf("job %s: final weights differ between concurrent and serial execution", spec.Name)
		}
		if math.Float64bits(res.TotalCost) != math.Float64bits(want.res.TotalCost) {
			t.Errorf("job %s: TotalCost differs between concurrent and serial execution", spec.Name)
		}
		if snap := metrics.MaskTimings(j.Registry().Snapshot()); snap != want.snap {
			t.Errorf("job %s: masked metric snapshots differ between concurrent and serial execution:\n--- concurrent ---\n%s\n--- serial ---\n%s",
				spec.Name, want.snap, snap)
		}
		if err := solo.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The cross-tenant seams must also hold: different specs, different
	// weights (otherwise "isolation" is vacuous).
	if sameBits(concurrent[specs[0].Name].res.Params, concurrent[specs[1].Name].res.Params) {
		t.Fatal("the two tenants produced identical weights; specs are not exercising isolation")
	}
	waitGoroutines(t, before)
}

// TestSubmitValidation pins the Submit-side guard rails: bad specs and
// duplicate names fail with errors instead of reaching the scheduler.
func TestSubmitValidation(t *testing.T) {
	svc := New(Config{StartHeld: true})
	defer svc.Kill()
	good := demoSpecs(1)[0]
	if _, err := svc.Submit(good); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(good); err == nil {
		t.Fatal("duplicate job name accepted")
	}
	for _, mut := range []func(*JobSpec){
		func(s *JobSpec) { s.Name = "" },
		func(s *JobSpec) { s.Name = "../escape" },
		func(s *JobSpec) { s.Name = ".hidden" },
		func(s *JobSpec) { s.Name = "has space" },
		func(s *JobSpec) { s.Clients = 0 },
		func(s *JobSpec) { s.Rounds = 0 },
		func(s *JobSpec) { s.LR = 0 },
		func(s *JobSpec) { s.LR = math.NaN() },
		func(s *JobSpec) { s.LR = math.Inf(1) },
		func(s *JobSpec) { s.SampleGroups = 0 },
		func(s *JobSpec) { s.DropoutProb = 1 },
		func(s *JobSpec) { s.DropoutProb = math.NaN() },
	} {
		bad := good
		bad.Name = "other"
		mut(&bad)
		if _, err := svc.Submit(bad); err == nil {
			t.Fatalf("invalid spec accepted: %+v", bad)
		}
	}
}

// TestAdmissionVerdicts covers the front door: unknown jobs are rejected
// with ErrUnknownJob, capacity overflow with ErrJobBusy, and an admitted
// subscriber immediately receives the job's current model version.
func TestAdmissionVerdicts(t *testing.T) {
	before := runtime.NumGoroutine()
	nw := fednode.NewMemNetwork()
	ln, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{StartHeld: true, MaxSubscribersPerJob: 1})
	svc.Serve(ln)
	spec := demoSpecs(3)[0]
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}

	// Unknown job.
	conn, err := nw.Dial("cloud")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Subscribe(conn, "no-such-job"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("subscribing to an unknown job: got %v, want ErrUnknownJob", err)
	}
	closeQuiet(conn)

	// First subscriber fills the only slot...
	c1, err := nw.Dial("cloud")
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := Subscribe(c1, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	version, _, final, err := sub1.Next()
	if err != nil {
		t.Fatal(err)
	}
	if version != 0 || final {
		t.Fatalf("held scheduler: first frame is version %d (final=%v), want the initial version 0", version, final)
	}

	// ...so the second hello bounces with busy.
	c2, err := nw.Dial("cloud")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Subscribe(c2, spec.Name); !errors.Is(err, ErrJobBusy) {
		t.Fatalf("subscribing past capacity: got %v, want ErrJobBusy", err)
	}
	closeQuiet(c2)
	closeQuiet(sub1)

	svc.Kill()
	waitGoroutines(t, before)
}

// TestLateJoinerAdoptsCurrentVersion freezes a cloud mid-job (HaltAfterWaves
// leaves the scheduler dead but the front door open) and subscribes fresh:
// the first frame must be the CURRENT version, not a replay from round zero.
// A second part subscribes to an already-completed job and must get the
// final aggregate immediately.
func TestLateJoinerAdoptsCurrentVersion(t *testing.T) {
	before := runtime.NumGoroutine()
	nw := fednode.NewMemNetwork()
	ln, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{StartHeld: true, HaltAfterWaves: 3})
	svc.Serve(ln)
	spec := demoSpecs(5)[0]
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	<-svc.Halted()

	conn, err := nw.Dial("cloud")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subscribe(conn, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	version, params, final, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if version != 3 || final {
		t.Fatalf("late joiner got version %d (final=%v), want the current version 3", version, final)
	}
	if len(params) == 0 {
		t.Fatal("late joiner got an empty model")
	}
	closeQuiet(sub)
	svc.Kill()
	waitGoroutines(t, before)

	// Completed job: the adoption frame doubles as the final aggregate.
	done := New(Config{})
	ln2, err := nw.Listen("cloud2")
	if err != nil {
		t.Fatal(err)
	}
	done.Serve(ln2)
	j, err := done.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := nw.Dial("cloud2")
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := Subscribe(conn2, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	version, params, final, err = sub2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !final || version != spec.Rounds {
		t.Fatalf("completed job: got version %d (final=%v), want final version %d", version, final, spec.Rounds)
	}
	if !sameBits(params, res.Params) {
		t.Fatal("completed job: the aggregate sent to a late subscriber differs from the job result")
	}
	closeQuiet(sub2)
	if err := done.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestSubscriberStreamEndsWithAggregate follows a full job from version 0 to
// completion over the wire: versions must be strictly increasing (coalescing
// may skip, never rewind), and the closing GlobalAggregate must carry the
// job's final weights bit for bit.
func TestSubscriberStreamEndsWithAggregate(t *testing.T) {
	before := runtime.NumGoroutine()
	nw := fednode.NewMemNetwork()
	ln, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{StartHeld: true})
	svc.Serve(ln)
	spec := demoSpecs(9)[0]
	spec.Rounds = 6
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := nw.Dial("cloud")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subscribe(conn, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	last, frames := -1, 0
	var finalParams []float64
	for {
		version, params, final, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if version <= last && !(final && version == last) {
			t.Fatalf("version stream rewound: %d after %d", version, last)
		}
		last = version
		frames++
		if final {
			finalParams = params
			break
		}
	}
	closeQuiet(sub)
	if last != spec.Rounds {
		t.Fatalf("stream ended at version %d, want %d", last, spec.Rounds)
	}
	if frames > spec.Rounds+2 {
		t.Fatalf("received %d frames for a %d-round job: coalescing is not bounding the stream", frames, spec.Rounds)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(finalParams, res.Params) {
		t.Fatal("final aggregate over the wire differs from the job result")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}
