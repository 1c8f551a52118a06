package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/nn"
	"repro/internal/sampling"
)

// coreWorkload drives core.NewSystem/NewVirtualSystem + NewTrainer/Step in
// process. train-gemm, train-paper and pop-regroup are three parameter sets
// of it: what differs is where the time goes, not how it is measured.
type coreWorkload struct {
	name    string
	sysCfg  core.SystemConfig
	virtual bool
	mlp     mlpShape
	// cfg is the training template (MaxParallel 0, no registry); job j
	// trains with Seed+j.
	cfg  core.Config
	jobs int
	// target is the accuracy whose first evaluated crossing defines
	// time_to_target_s and cost_to_target (0: the workload has no target).
	target float64
	// twin reruns job 0 at MaxParallel=1 on the same seed: the single-worker
	// baseline of parallel_speedup, and the bit-identity check.
	twin bool
	// tracedRounds sizes the serial untraced/traced pair of a traced run.
	tracedRounds int
	tmpDir       string
	budget       time.Duration

	sys      *core.System
	trainers []*core.Trainer
}

// vpCfg is the synthesis recipe of a virtual system (nil otherwise), which
// the data probes rebuild a VirtualPartition from.
func (w *coreWorkload) vpCfg() *core.SystemConfig {
	if !w.virtual {
		return nil
	}
	return &w.sysCfg
}

// mlpShape is the model and batch geometry the layer probes are run at.
type mlpShape struct {
	in, hidden, classes, batch int
}

func (m mlpShape) newModel(seed uint64) *nn.Sequential {
	return nn.NewMLP(m.in, []int{m.hidden}, m.classes, seed)
}

func covGrouping(minGS int) grouping.Algorithm {
	return grouping.CoVGrouping{Config: grouping.Config{MinGS: minGS, MaxCoV: 0.5, MergeLeftover: true}}
}

// baseConfig is what the three core workloads and the net reference run
// share: CoV-Grouping, ESRCoV sampling, stabilized (Eq. 35) weights and the
// paper's CIFAR cost profile.
func baseConfig(seed uint64, minGS int) core.Config {
	return core.Config{
		LR:          0.05,
		Grouping:    covGrouping(minGS),
		Sampling:    sampling.ESRCoV,
		Weights:     sampling.Stabilized,
		Seed:        derive(seed, tagTrain),
		CostProfile: cost.CIFARProfile(),
		CostOps:     cost.DefaultOps(),
	}
}

func systemConfig(seed uint64, classes int, noise float64, part data.PartitionConfig, edges, testSize int, m mlpShape) core.SystemConfig {
	gen := data.FlatConfig(classes, m.in, derive(seed, tagGenerator))
	gen.Noise = noise
	part.Alpha = 0.5
	part.Seed = derive(seed, tagPartition)
	return core.SystemConfig{
		Generator: gen,
		Partition: part,
		NumEdges:  edges,
		TestSize:  testSize,
		NewModel:  m.newModel,
		ModelSeed: derive(seed, tagModel),
	}
}

func newTrainGemm(seed uint64, z sizing, outDir string) workload {
	m := mlpShape{in: z.pick(256, 64), hidden: z.pick(256, 64), classes: 10, batch: 64}
	cfg := baseConfig(seed, 5)
	cfg.GlobalRounds = z.rounds(8)
	// S is the client count, so it is capped at the number of groups: every
	// group trains every round, and a round's work no longer depends on
	// which groups the seed happens to draw.
	cfg.GroupRounds, cfg.LocalEpochs, cfg.SampleGroups, cfg.BatchSize = 2, 1, 32, m.batch
	cfg.EvalEvery = cfg.GlobalRounds + 1 // the final round only (and round 0)
	return &coreWorkload{
		name: "train-gemm",
		sysCfg: systemConfig(seed, 10, 1.2, data.PartitionConfig{
			NumClients: z.pick(32, 16), MinSamples: 64, MaxSamples: 160, MeanSamples: 112, StdSamples: 24,
		}, 2, 512, m),
		mlp: m, cfg: cfg, jobs: 1, twin: true,
		tracedRounds: z.rounds(4), tmpDir: outDir, budget: z.probeBudget(),
	}
}

func newTrainPaper(seed uint64, z sizing, outDir string) workload {
	m := mlpShape{in: 24, hidden: 32, classes: 10, batch: 16}
	cfg := baseConfig(seed, 5)
	cfg.GlobalRounds = z.rounds(18)
	cfg.GroupRounds, cfg.LocalEpochs, cfg.SampleGroups, cfg.BatchSize = 5, 2, 12, m.batch
	cfg.EvalEvery, cfg.DropoutProb, cfg.RegroupEvery = 2, 0.05, 9
	w := &coreWorkload{
		name: "train-paper",
		sysCfg: systemConfig(seed, 10, 1.9, data.PartitionConfig{
			NumClients: z.pick(300, 60), MinSamples: 20, MaxSamples: 200, MeanSamples: 110, StdSamples: 45,
		}, 3, z.pick(2000, 200), m),
		mlp: m, cfg: cfg, jobs: 3, target: 0.5,
		tracedRounds: z.rounds(18), tmpDir: outDir, budget: z.probeBudget(),
	}
	if z.smoke {
		// Three rounds cannot reach a real target; the smoke run only checks
		// that the crossing is detected and reported.
		w.target = 0.01
	}
	return w
}

func newPopRegroup(seed uint64, z sizing, outDir string) workload {
	m := mlpShape{in: 24, hidden: 32, classes: 10, batch: 16}
	cfg := baseConfig(seed, 5)
	cfg.GlobalRounds = z.rounds(260)
	cfg.GroupRounds, cfg.LocalEpochs, cfg.SampleGroups, cfg.BatchSize = 2, 1, 8, m.batch
	cfg.EvalEvery, cfg.RegroupEvery = 10, 10
	if z.smoke {
		cfg.RegroupEvery = 2
	}
	return &coreWorkload{
		name: "pop-regroup", virtual: true,
		sysCfg: systemConfig(seed, 10, 1.6, data.PartitionConfig{
			NumClients: z.pick(100_000, 2_000), MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
		}, z.pick(80, 4), 512, m),
		mlp: m, cfg: cfg, jobs: 1,
		tracedRounds: z.rounds(80), tmpDir: outDir, budget: z.probeBudget(),
	}
}

func (w *coreWorkload) buildSystem() *core.System {
	if w.virtual {
		return core.NewVirtualSystem(w.sysCfg)
	}
	sys := core.NewSystem(w.sysCfg)
	// Gather every client's batch once, as the first round of any run
	// would: the cache is part of being ready, not of a round.
	for _, c := range sys.Clients {
		sys.ClientBatch(c)
	}
	return sys
}

func (w *coreWorkload) jobConfig(j int) core.Config {
	cfg := w.cfg
	cfg.Seed += uint64(j)
	return cfg
}

func (w *coreWorkload) setup() error {
	w.sys = w.buildSystem()
	w.trainers = make([]*core.Trainer, w.jobs)
	for j := range w.trainers {
		w.trainers[j] = core.NewTrainer(w.sys, w.jobConfig(j))
	}
	return nil
}

func (w *coreWorkload) teardown() { w.sys, w.trainers = nil, nil }

// jobRun is one trainer stepped to completion.
type jobRun struct {
	res   *core.Result
	steps []float64 // wall seconds of every Step call
	wall  float64   // their sum
	speed float64   // host speed observed between the steps
	norm  float64   // wall in nominal-host seconds
	// crossed reports whether an evaluated accuracy reached the target;
	// crossS is the time from the first Step to that record and crossCost
	// its cumulative Eq. 5 cost. A run that never gets there is censored at
	// its last round: both read the whole run.
	crossed   bool
	crossS    float64
	crossCost float64
	nanLoss   bool
}

// stepAll drives tr to completion, timing every Step (scheduled evaluations
// included) and sampling the host speed between steps. Spans are recorded
// when t is non-nil.
func stepAll(tr *core.Trainer, target float64, sm *speedometer, t *tracer, parent int) jobRun {
	var run jobRun
	sm.reset()
	sm.sample()
	for !tr.Done() {
		sp := t.start("core.Step", parent)
		t0 := time.Now()
		rec := tr.Step()
		d := seconds(t0)
		t.end(sp)
		sm.tick()
		run.steps = append(run.steps, d)
		run.wall += d
		evaluated := rec.Accuracy >= 0
		if evaluated && math.IsNaN(rec.Loss) {
			run.nanLoss = true
		}
		if target > 0 && !run.crossed && evaluated && rec.Accuracy >= target {
			run.crossed, run.crossS, run.crossCost = true, run.wall, rec.Cost
		}
	}
	sm.sample()
	sp := t.start("core.Finish", parent)
	run.res = tr.Finish()
	t.end(sp)
	if math.IsNaN(run.res.FinalLoss) {
		run.nanLoss = true
	}
	if target > 0 && !run.crossed {
		run.crossS, run.crossCost = run.wall, run.res.TotalCost
	}
	run.speed = sm.speed()
	run.norm = sm.nominal(run.wall)
	run.crossS = sm.nominal(run.crossS)
	return run
}

func (w *coreWorkload) window(r *result, sm *speedometer) error {
	var rounds, crossed int
	var wall, norm, acc, costTotal, crossS, crossCost float64
	var first jobRun
	for j, tr := range w.trainers {
		run := stepAll(tr, w.target, sm, nil, -1)
		if j == 0 {
			first = run
		}
		rounds += run.res.RoundsRun
		wall += run.wall
		norm += run.norm
		acc += run.res.FinalAccuracy
		costTotal += run.res.TotalCost
		r.ops(run.res.RoundsRun)
		r.Samples["round_s"] = append(r.Samples["round_s"], run.steps...)
		r.check(!run.nanLoss, "%s job %d: NaN loss", w.name, j)
		if w.target > 0 {
			crossS += run.crossS
			crossCost += run.crossCost
			if run.crossed {
				crossed++
			}
		}
	}
	w.trainers = nil
	r.WindowS, r.HostSpeed = wall, first.speed
	r.e2e(mRounds, float64(rounds)/norm, "rounds/s")
	r.e2e(mCostRound, costTotal/float64(rounds), "cost")
	r.e2e(mAccuracy, acc/float64(w.jobs), "fraction")
	if w.target > 0 {
		r.e2e(mTimeTarget, crossS, "s")
		r.e2e(mCostTarget, crossCost, "cost")
		r.note("%d of %d jobs reached accuracy %.2f; the others are censored at their last round", crossed, w.jobs, w.target)
	}
	if w.twin {
		cfg := w.jobConfig(0)
		cfg.MaxParallel = 1
		serial := stepAll(core.NewTrainer(w.sys, cfg), 0, sm, nil, -1)
		r.ops(serial.res.RoundsRun)
		r.WindowS += serial.wall
		r.check(sameBits(first.res.Params, serial.res.Params),
			"%s: MaxParallel=0 and MaxParallel=1 weights differ", w.name)
		r.e2e(mSpeedup, serial.norm/first.norm, "x")
	}
	return nil
}

// sameBits reports whether two parameter vectors are bit-for-bit equal.
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

// traced reruns job 0 serially twice on a fresh system — once bare, once
// with spans and a registry — so span self-times add up and the difference
// between the two is the price of tracing, then probes the layers.
func (w *coreWorkload) traced(t *tracer, r *result, sm *speedometer) error {
	root := t.start(w.name, -1)
	sp := t.start("core.NewSystem", root)
	sys := w.buildSystem()
	t.end(sp)

	cfg := w.jobConfig(0)
	cfg.MaxParallel = 1
	cfg.GlobalRounds = w.tracedRounds
	bare := stepAll(core.NewTrainer(sys, cfg), 0, sm, nil, -1)

	reg := t.registry()
	cfg.Metrics = reg
	sp = t.start("core.NewTrainer", root)
	t0 := time.Now()
	tr := core.NewTrainer(sys, cfg)
	newTrainerS := seconds(t0)
	t.end(sp)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := stepAll(tr, 0, sm, t, root)
	runtime.ReadMemStats(&after)
	t.end(root)

	d, err := dumpRegistry(reg)
	if err != nil {
		return err
	}
	rounds := float64(run.res.RoundsRun)
	localS, _ := d.histSum("fel_core_local_train_seconds")
	groupAggS, _ := d.histSum("fel_core_group_aggregate_seconds")
	globalAggS, _ := d.histSum("fel_core_global_aggregate_seconds")
	evalS, _ := d.histSum("fel_core_eval_seconds")
	stepS := t.total("core.Step")
	r.layer("core.local_train_s", localS, "s")
	r.layer("core.group_aggregate_s", groupAggS, "s")
	r.layer("core.global_aggregate_s", globalAggS, "s")
	r.layer("core.eval_s", evalS, "s")
	r.layer("core.step_self_s", stepS-localS-groupAggS-globalAggS-evalS, "s")
	r.layer("core.step_allocs_per_round", float64(after.Mallocs-before.Mallocs)/rounds, "count")
	r.layer("core.step_alloc_kb_per_round", float64(after.TotalAlloc-before.TotalAlloc)/1024/rounds, "KB")
	r.layer("core.new_trainer_s", newTrainerS, "s")
	r.layer("metrics.trace_overhead_frac", run.norm/bare.norm-1, "fraction")

	p, err := runProbes(probeInput{
		sys: sys, vpCfg: w.vpCfg(), mlp: w.mlp, cfg: cfg, trainer: tr,
		tmpDir: w.tmpDir, budget: w.budget,
	}, r)
	if err != nil {
		return err
	}
	// Everything Step did that a layer metric accounts for: the four
	// registry phases plus the regroups and selections, priced by probe.
	regroups := 0.0
	if cfg.RegroupEvery > 0 {
		regroups = math.Floor((rounds - 1) / float64(cfg.RegroupEvery))
	}
	attributed := localS + groupAggS + globalAggS + evalS +
		regroups*(p.formAllS+p.probabilitiesS) + rounds*(p.sampleS+p.weightsS)
	r.layer("bench.attributed_frac", attributed/stepS, "fraction")
	return nil
}
