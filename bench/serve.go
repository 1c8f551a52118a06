package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fednode"
	"repro/internal/felserve"
)

// serveWorkload trains four tiny jobs under one felserve cloud while 64
// subscribers per job — one goroutine each, blocked in Subscription.Next,
// so the loop is closed — follow the version stream over in-memory pipes
// (pipes, not sockets, keep kernel TCP noise out of a scheduler
// measurement). The model is 10→16→4: compute is negligible, so the wave
// scheduler, the per-subscriber fan-out and the checkpoint fsync every five
// rounds are what the window times.
type serveWorkload struct {
	specs        []felserve.JobSpec
	subsPerJob   int
	tracedRounds int
	tmpDir       string
	budget       time.Duration

	cur *serveRun
}

const serveCheckpointEvery = 5

func newServeFanout(seed uint64, z sizing, outDir string) workload {
	jobs := 4
	specs := make([]felserve.JobSpec, jobs)
	for i := range specs {
		specs[i] = felserve.JobSpec{
			Name:    fmt.Sprintf("bench-%d", i),
			Clients: 24, Edges: 2,
			SystemSeed: derive(seed, tagGenerator) + uint64(i),
			Seed:       derive(seed, tagTrain) + uint64(i),
			Rounds:     z.rounds(1300), GroupRounds: 2, LocalEpochs: 1,
			BatchSize: 16, LR: 0.05, SampleGroups: 2,
			Scaffold: i%2 == 1,
		}
	}
	return &serveWorkload{
		specs: specs, subsPerJob: z.pick(64, 4),
		tracedRounds: z.rounds(400), tmpDir: outDir, budget: z.probeBudget(),
	}
}

// follower is one subscriber stream.
type follower struct {
	job      int
	versions int
	final    []float64
	err      error
	// stamps holds the time of every Next return, kept in traced runs only.
	stamps []time.Time
	doneAt time.Time
}

// serveRun is one set-up service with its admitted subscribers.
type serveRun struct {
	specs     []felserve.JobSpec
	svc       *felserve.Service
	dir       string
	before    int // goroutines before the service existed
	followers []*follower
	streams   sync.WaitGroup
	admitS    float64
	wallS     float64 // raw Start→Wait seconds of the last drive
	closed    bool
}

// startServe builds the service, submits the jobs and admits every
// subscriber before returning — all of it set-up, none of it timed window.
func startServe(specs []felserve.JobSpec, subsPerJob int, tmpDir string, t *tracer, parent int) (*serveRun, error) {
	run := &serveRun{specs: specs, before: runtime.NumGoroutine()}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpDir, "serve-ckpt-")
	if err != nil {
		return nil, err
	}
	run.dir = dir
	nw := fednode.NewMemNetwork()
	ln, err := nw.Listen("cloud")
	if err != nil {
		return nil, err
	}
	run.svc = felserve.New(felserve.Config{Dir: dir, CheckpointEvery: serveCheckpointEvery, StartHeld: true})
	run.svc.Serve(ln)
	for _, spec := range specs {
		sp := t.start("felserve.Submit", parent)
		_, err := run.svc.Submit(spec)
		t.end(sp)
		if err != nil {
			run.abort()
			return nil, err
		}
	}

	var admitted sync.WaitGroup
	admitStart := time.Now()
	for j := range specs {
		for i := 0; i < subsPerJob; i++ {
			f := &follower{job: j}
			run.followers = append(run.followers, f)
			// One subscriber in sixteen has its Next calls recorded as
			// spans; all of them keep timestamps in a traced run.
			var spanT *tracer
			if i%16 == 0 {
				spanT = t
			}
			admitted.Add(1)
			run.streams.Add(1)
			go func() {
				defer run.streams.Done()
				f.follow(nw, specs[f.job].Name, &admitted, t != nil, spanT, parent)
			}()
		}
	}
	admitted.Wait()
	run.admitS = seconds(admitStart)
	return run, nil
}

// follow dials, subscribes, and reads versions until the final aggregate.
func (f *follower) follow(nw fednode.Network, job string, admitted *sync.WaitGroup, stamp bool, t *tracer, parent int) {
	// 256 subscribers dialing at once is the stampede the protocol's retry
	// schedule exists for.
	conn, err := fednode.DialRetry(nw, "subscriber", "cloud", 5, 5*time.Millisecond, nil, nil)
	if err != nil {
		f.err = err
		admitted.Done()
		return
	}
	defer closeQuiet(conn)
	sp := t.start("felserve.Subscribe", parent)
	sub, err := felserve.Subscribe(conn, job)
	t.end(sp)
	admitted.Done()
	if err != nil {
		f.err = err
		return
	}
	for {
		sp := t.start("felserve.Next", parent)
		_, params, final, err := sub.Next()
		t.end(sp)
		if err != nil {
			f.err = err
			return
		}
		f.versions++
		if stamp {
			f.stamps = append(f.stamps, time.Now())
		}
		if final {
			f.final = params
			f.doneAt = time.Now()
			return
		}
	}
}

func closeQuiet(c net.Conn) {
	//lint:ignore dropped-error the stream already ended; nothing depends on this close
	c.Close()
}

// drive releases the held scheduler and waits for every job, then for every
// subscriber stream: the timed window is Start→Wait (returned in
// nominal-host seconds), drain is how long the last subscriber's final frame
// trailed it.
func (run *serveRun) drive(sm *speedometer, t *tracer, parent int) (windowS, drainS float64) {
	sp := t.start("felserve.Start-Wait", parent)
	var start, waited time.Time
	sm.reset()
	sm.during(func() {
		start = time.Now()
		run.svc.Start()
		run.svc.Wait()
		waited = time.Now()
	})
	t.end(sp)
	run.streams.Wait()
	last := waited
	for _, f := range run.followers {
		if f.doneAt.After(last) {
			last = f.doneAt
		}
	}
	run.wallS = waited.Sub(start).Seconds()
	return sm.nominal(run.wallS), last.Sub(waited).Seconds()
}

// abort tears down a service that was never started: no exit checkpoints,
// subscribers see their connections close.
func (run *serveRun) abort() {
	if run.closed {
		return
	}
	run.closed = true
	run.svc.Kill()
	run.streams.Wait()
	//lint:ignore dropped-error best-effort cleanup of this run's own scratch directory
	os.RemoveAll(run.dir)
}

// close shuts the finished service down and removes its checkpoint
// directory.
func (run *serveRun) close() error {
	if run.closed {
		return nil
	}
	run.closed = true
	err := run.svc.Close()
	if rerr := os.RemoveAll(run.dir); err == nil {
		err = rerr
	}
	return err
}

// leaked waits for handler teardown to settle and returns how many
// goroutines remain above the level before the service existed.
func (run *serveRun) leaked() int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > run.before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-run.before, 0)
}

// verify counts every subscriber stream as an operation — failed unless it
// ended on a final frame bit-equal to its job's result — and returns the
// jobs' results.
func (run *serveRun) verify(r *result) ([]*core.Result, error) {
	results := make([]*core.Result, len(run.specs))
	for j, spec := range run.specs {
		res, err := run.svc.Job(spec.Name).Wait()
		if err != nil {
			return nil, err
		}
		results[j] = res
	}
	for i, f := range run.followers {
		ok := f.err == nil && sameBits(f.final, results[f.job].Params)
		r.check(ok, "serve-fanout: subscriber %d of %s: err=%v, final frame differs from the job result", i, run.specs[f.job].Name, f.err)
	}
	return results, nil
}

func (run *serveRun) received() int {
	n := 0
	for _, f := range run.followers {
		n += f.versions
	}
	return n
}

func (w *serveWorkload) setup() error {
	run, err := startServe(w.specs, w.subsPerJob, w.tmpDir, nil, -1)
	w.cur = run
	return err
}

func (w *serveWorkload) teardown() {
	if w.cur != nil {
		w.cur.abort()
		w.cur = nil
	}
}

func (w *serveWorkload) window(r *result, sm *speedometer) error {
	run := w.cur
	windowS, _ := run.drive(sm, nil, -1)
	results, err := run.verify(r)
	if err != nil {
		return err
	}
	reg := run.svc.Registry()
	rounds := reg.CounterValue("fel_serve_rounds_total")
	admitted := reg.CounterValue("fel_serve_subscribers_admitted_total")
	if err := run.close(); err != nil {
		return err
	}
	r.ops(int(rounds))
	r.check(int(admitted) == len(run.followers), "serve-fanout: %d of %d subscribers admitted", admitted, len(run.followers))
	leaked := run.leaked()
	r.check(leaked == 0, "serve-fanout: %d goroutines leaked", leaked)

	acc, costTotal, nan := 0.0, 0.0, false
	for _, res := range results {
		acc += res.FinalAccuracy
		costTotal += res.TotalCost
		nan = nan || math.IsNaN(res.FinalLoss)
	}
	r.check(!nan, "serve-fanout: NaN loss")
	r.WindowS, r.HostSpeed = run.wallS, sm.speed()
	r.e2e(mRounds, float64(rounds)/windowS, "rounds/s")
	r.e2e(mCostRound, costTotal/float64(rounds), "cost")
	r.e2e(mAccuracy, acc/float64(len(results)), "fraction")
	r.e2e(mVersions, float64(run.received())/windowS, "versions/s")
	return nil
}

// traced runs a shorter version of the jobs three ways — bare core.Train,
// served untraced, served with spans — and probes the layers at the job's
// shape.
func (w *serveWorkload) traced(t *tracer, r *result, sm *speedometer) error {
	specs := make([]felserve.JobSpec, len(w.specs))
	for i, s := range w.specs {
		s.Rounds = w.tracedRounds
		specs[i] = s
	}

	bareS := 0.0
	for _, s := range specs {
		sys, cfg := s.System(), s.TrainConfig(nil)
		var d float64
		sm.reset()
		sm.during(func() {
			t0 := time.Now()
			core.Train(sys, cfg)
			d = seconds(t0)
		})
		bareS += sm.nominal(d)
	}

	untraced, err := startServe(specs, w.subsPerJob, w.tmpDir, nil, -1)
	if err != nil {
		return err
	}
	untracedS, _ := untraced.drive(sm, nil, -1)
	if err := untraced.close(); err != nil {
		return err
	}

	root := t.start("serve-fanout", -1)
	run, err := startServe(specs, w.subsPerJob, w.tmpDir, t, root)
	if err != nil {
		return err
	}
	windowS, drainS := run.drive(sm, t, root)
	t.end(root)

	var localS, groupAggS, globalAggS, evalS float64
	for _, s := range specs {
		d, err := dumpRegistry(run.svc.Job(s.Name).Registry())
		if err != nil {
			return err
		}
		a, _ := d.histSum("fel_core_local_train_seconds")
		b, _ := d.histSum("fel_core_group_aggregate_seconds")
		c, _ := d.histSum("fel_core_global_aggregate_seconds")
		e, _ := d.histSum("fel_core_eval_seconds")
		localS, groupAggS, globalAggS, evalS = localS+a, groupAggS+b, globalAggS+c, evalS+e
	}
	reg := run.svc.Registry()
	checkpoints := float64(reg.CounterValue("fel_serve_checkpoints_total"))
	sent := float64(reg.CounterValue("fel_serve_versions_sent_total"))
	if err := run.close(); err != nil {
		return err
	}

	var gaps []float64
	for _, f := range run.followers {
		for i := 1; i < len(f.stamps); i++ {
			gaps = append(gaps, f.stamps[i].Sub(f.stamps[i-1]).Seconds()*1e3)
		}
	}
	r.note("felserve.version_gap_*: %d gaps pooled over %d subscribers", len(gaps), len(run.followers))
	rounds := float64(w.tracedRounds)
	r.layer("core.local_train_s", localS, "s")
	r.layer("core.group_aggregate_s", groupAggS, "s")
	r.layer("core.global_aggregate_s", globalAggS, "s")
	r.layer("core.eval_s", evalS, "s")
	r.layer("felserve.version_gap_p50_ms", percentile(gaps, 0.50), "ms")
	r.layer("felserve.version_gap_p99_ms", percentile(gaps, 0.99), "ms")
	r.layer("felserve.delivered_frac", float64(run.received())/(float64(len(run.followers))*(rounds+1)), "fraction")
	r.layer("felserve.overhead_frac", 1-bareS/untracedS, "fraction")
	r.layer("felserve.admit_s", run.admitS, "s")
	r.layer("felserve.drain_s", drainS, "s")
	r.layer("metrics.trace_overhead_frac", windowS/untracedS-1, "fraction")

	spec := specs[0]
	cfg := spec.TrainConfig(nil)
	sys := spec.System()
	tr := core.NewTrainer(sys, cfg)
	tr.Step()
	p, err := runProbes(probeInput{
		sys: sys, mlp: mlpShape{in: 10, hidden: 16, classes: 4, batch: spec.BatchSize},
		cfg: cfg, trainer: tr,
		tmpDir: w.tmpDir, budget: w.budget,
	}, r)
	if err != nil {
		return err
	}
	// Server-side work the layer metrics account for: the jobs' training
	// (their bare core.Train time — the registries' phase sums above include
	// the time a job's goroutine sat runnable behind the other tenants), one
	// durable checkpoint per due round, one encode per version sent.
	// Subscriber-side decode runs on the same two CPUs in 256 other
	// goroutines; it is the bulk of what stays unattributed.
	attributed := bareS + checkpoints*p.ckptSaveS + sent*p.encodeS/2/float64(hostProcs())
	r.layer("bench.attributed_frac", attributed/windowS, "fraction")
	return nil
}
