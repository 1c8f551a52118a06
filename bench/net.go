package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fednode"
)

// netWorkload runs fednode.RunJob over real loopback TCP sockets: cloud,
// two edges and 48 clients in this process, each on its own connection. The
// connections are the system under test, not a load generator. An
// in-process core.Train on the same seed is the correctness reference.
type netWorkload struct {
	sysCfg core.SystemConfig
	mlp    mlpShape
	job    fednode.JobConfig
	// ref is the in-process twin of job.
	ref          core.Config
	tracedRounds int
	tmpDir       string
	budget       time.Duration

	sys *core.System
}

// cloudRounds is the registry series holding the cloud's per-round times.
const cloudRounds = `fel_fednode_round_seconds{role="cloud"}`

// quantGap bounds |networked − in-process| final accuracy: the runs share
// every RNG draw, so only secagg's fixed-point quantisation separates them.
const quantGap = 0.05

func newNetLoopback(seed uint64, z sizing, outDir string) workload {
	m := mlpShape{in: 64, hidden: 128, classes: 10, batch: 16}
	ref := baseConfig(seed, 6)
	ref.GlobalRounds = z.rounds(40)
	// S = client count, capped at the group count: all 48 connections carry
	// traffic every round, whatever formation the seed produced.
	ref.GroupRounds, ref.LocalEpochs, ref.SampleGroups, ref.BatchSize = 2, 1, 48, m.batch
	ref.EvalEvery = ref.GlobalRounds + 1
	return &netWorkload{
		sysCfg: systemConfig(seed, 10, 1.5, data.PartitionConfig{
			NumClients: z.pick(48, 16), MinSamples: 20, MaxSamples: 60, MeanSamples: 40, StdSamples: 10,
		}, 2, 512, m),
		mlp: m, ref: ref, job: jobFromCore(ref),
		tracedRounds: z.rounds(20),
		tmpDir:       outDir,
		budget:       z.probeBudget(),
	}
}

// jobFromCore spells a core.Config as the fednode.JobConfig that mirrors it.
func jobFromCore(c core.Config) fednode.JobConfig {
	return fednode.JobConfig{
		GlobalRounds: c.GlobalRounds, GroupRounds: c.GroupRounds, LocalEpochs: c.LocalEpochs,
		BatchSize: c.BatchSize, LR: c.LR, SampleGroups: c.SampleGroups,
		Grouping: c.Grouping, Sampling: c.Sampling, Weights: c.Weights,
		Seed: c.Seed, EvalEvery: c.EvalEvery,
	}
}

func (w *netWorkload) setup() error {
	w.sys = core.NewSystem(w.sysCfg)
	return nil
}

func (w *netWorkload) teardown() { w.sys = nil }

// runJob runs job over loopback TCP while sampling the host speed, and
// returns the report with the job's wall clock in nominal-host seconds.
func runJob(sys *core.System, job fednode.JobConfig, sm *speedometer) (rep *fednode.Report, normS float64, err error) {
	sm.reset()
	sm.during(func() {
		rep, err = fednode.RunJob(fednode.TCPNetwork{}, sys, job, "127.0.0.1:0")
	})
	if err != nil {
		return nil, 0, err
	}
	return rep, sm.nominal(rep.WallClock.Seconds()), nil
}

func (w *netWorkload) window(r *result, sm *speedometer) error {
	rep, normS, err := runJob(w.sys, w.job, sm)
	if err != nil {
		return err
	}
	ref := core.Train(w.sys, w.ref)

	rounds := float64(rep.RoundsRun)
	r.WindowS, r.HostSpeed = rep.WallClock.Seconds(), sm.speed()
	r.ops(rep.RoundsRun)
	r.check(rep.RoundsRun == w.job.GlobalRounds, "net-loopback: ran %d of %d rounds", rep.RoundsRun, w.job.GlobalRounds)
	r.check(rep.WireWritten == rep.AccountedBytes, "net-loopback: transport wrote %d B, codec accounted %d B", rep.WireWritten, rep.AccountedBytes)
	r.check(rep.Dropouts == 0 && rep.Recoveries == 0, "net-loopback: %d dropouts, %d recoveries on a clean run", rep.Dropouts, rep.Recoveries)
	r.check(math.Abs(rep.FinalAccuracy-ref.FinalAccuracy) <= quantGap,
		"net-loopback: accuracy %.4f vs in-process %.4f", rep.FinalAccuracy, ref.FinalAccuracy)
	r.check(!math.IsNaN(rep.FinalLoss), "net-loopback: NaN loss")

	r.e2e(mRounds, rounds/normS, "rounds/s")
	// The cloud mirrors core.Train draw for draw, so the reference run's
	// Eq. 5 accounting is this job's.
	r.e2e(mCostRound, ref.TotalCost/float64(ref.RoundsRun), "cost")
	r.e2e(mAccuracy, rep.FinalAccuracy, "fraction")
	r.e2e(mWireBytes, float64(rep.WireWritten)/rounds, "bytes")
	return nil
}

// traced reruns a shorter job twice — bare, then with a registry-backed
// Meter and a span around RunJob — and prices secagg and wire by probe to
// split a round into compute and waiting.
func (w *netWorkload) traced(t *tracer, r *result, sm *speedometer) error {
	root := t.start("net-loopback", -1)
	sp := t.start("core.NewSystem", root)
	sys := core.NewSystem(w.sysCfg)
	t.end(sp)

	job := w.job
	job.GlobalRounds = w.tracedRounds
	bare, bareS, err := runJob(sys, job, sm)
	if err != nil {
		return err
	}
	reg := t.registry()
	job.Meter = fednode.NewMeter(reg)
	sp = t.start("fednode.RunJob", root)
	rep, tracedS, err := runJob(sys, job, sm)
	t.end(sp)
	t.end(root)
	if err != nil {
		return err
	}
	d, err := dumpRegistry(reg)
	if err != nil {
		return err
	}

	rounds := float64(rep.RoundsRun)
	localS, localN := d.histSum("fel_fednode_local_train_seconds")
	groupRoundS, _ := d.histSum("fel_fednode_group_round_seconds")
	r.layer("fednode.round_p50_ms", 1e3*d.histQuantile(cloudRounds, 0.50), "ms")
	r.layer("fednode.round_p95_ms", 1e3*d.histQuantile(cloudRounds, 0.95), "ms")
	r.layer("fednode.group_round_s", groupRoundS, "s")
	r.layer("fednode.local_train_s", localS, "s")
	r.layer("fednode.frames_per_round", float64(rep.Frames)/rounds, "count")
	r.layer("fednode.dropouts", float64(rep.Dropouts), "count")
	r.layer("fednode.recoveries", float64(rep.Recoveries), "count")
	r.layer("fednode.dial_retries", float64(d.Counters["fel_net_dial_retries_total"]), "count")
	r.layer("metrics.trace_overhead_frac", (tracedS/rounds)/(bareS/float64(bare.RoundsRun))-1, "fraction")

	// The reference trainer doubles as the stepped trainer the checkpoint
	// probes export from.
	ref := w.ref
	ref.GlobalRounds = 2
	tr := core.NewTrainer(sys, ref)
	tr.Step()
	p, err := runProbes(probeInput{
		sys: sys, mlp: w.mlp, cfg: ref, trainer: tr,
		tmpDir: w.tmpDir, budget: w.budget,
	}, r)
	if err != nil {
		return err
	}

	// Work a round cannot avoid, were nothing ever waiting, priced by probe
	// (the registry's own local-train spans include the time a client
	// goroutine sat runnable behind 47 others): every client trains, masks,
	// and moves one model-sized frame each way per group round; the edge
	// unmasks once per group round; all of it spread over this host's CPUs.
	// What is left of the round is fednode itself — session set-up, the
	// state machine, hand-offs between 51 nodes — and waiting for the
	// slowest client of a group and the slowest group of a round.
	clientCalls := float64(localN)
	groupRounds := float64(len(p.groupSizes)*job.GroupRounds) * rounds
	perCall := p.localPerSampleS*p.meanSamples*float64(job.LocalEpochs) + p.maskS + p.encodeS + p.decodeS
	busy := (clientCalls*perCall + groupRounds*p.aggregateS) / float64(hostProcs())
	r.layer("fednode.wait_frac", 1-busy/tracedS, "fraction")
	r.layer("bench.attributed_frac", busy/tracedS, "fraction")
	return nil
}
