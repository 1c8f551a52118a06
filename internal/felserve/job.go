package felserve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/wire"
)

// JobSpec is the complete, serializable description of one federation job.
// Every field is a value — no callbacks, no live objects — so the spec can
// ride inside a checkpoint file and a recovered service can rebuild the
// identical System and Config from it alone. The synthetic federation it
// describes is the same family the felnode CLI builds: a FlatConfig
// 4-class/10-feature population partitioned Dirichlet(0.5) across clients,
// trained on an MLP 10→16→4.
type JobSpec struct {
	// Name identifies the job; it is the checkpoint filename stem and the
	// admission-control handle subscribers name in their hello.
	Name string
	// Clients and Edges size the federation.
	Clients, Edges int
	// SystemSeed drives data generation and partitioning; Seed drives the
	// training run (formation, sampling, SGD shuffles).
	SystemSeed, Seed uint64
	// Rounds (T), GroupRounds (K), LocalEpochs (E).
	Rounds, GroupRounds, LocalEpochs int
	// BatchSize for local SGD; LR the learning rate.
	BatchSize int
	LR        float64
	// SampleGroups is S, the groups drawn per global round.
	SampleGroups int
	// MinGS and MaxCoV parameterize CoV-Grouping.
	MinGS  int
	MaxCoV float64
	// Scaffold switches the local updater from plain SGD to SCAFFOLD.
	Scaffold bool
	// DropoutProb simulates unreliable clients (see core.Config).
	DropoutProb float64
	// MaxParallel bounds the trainer's fan-out (0 = one worker per physical CPU).
	MaxParallel int
	// EvalEvery evaluates every n rounds (0/1 = every round).
	EvalEvery int
}

// Validate rejects what only the spec knows is wrong: a name that cannot be
// a checkpoint filename or ride in a hello, and a federation with no clients
// or edges, which System cannot build. Everything else is the trainer's
// config, and core.NewTrainerOn judges it when the job is built, so Submit
// fails with an error instead of taking the scheduler down.
func (s JobSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("felserve: job needs a name")
	case len(s.Name) > maxJobName:
		return fmt.Errorf("felserve: job name %q exceeds %d bytes", s.Name[:16]+"…", maxJobName)
	case !nameOK(s.Name):
		return fmt.Errorf("felserve: job name %q: want [a-zA-Z0-9._-]+, not starting with '.'", s.Name)
	case s.Clients <= 0 || s.Edges <= 0:
		return fmt.Errorf("felserve: job %q: Clients and Edges must be positive", s.Name)
	}
	return nil
}

// maxJobName bounds a job name in bytes, for Validate and for the hellos that
// name a job.
const maxJobName = 128

// maxHelloPayload is the largest payload a hello can carry: wire.MinPayload,
// then one 4-byte Ints element per name byte. readHello decodes with it as
// the frame limit, so a header announcing more is refused before the peer is
// admitted and before any payload buffer is taken.
const maxHelloPayload = wire.MinPayload + 4*maxJobName

// helloTimeout bounds how long a connection may stay silent before its
// hello: a peer that connects and never speaks is dropped then, and counted
// as rejected for "hello_timeout", instead of holding a handler and a
// tracked connection until shutdown.
const helloTimeout = 10 * time.Second

// nameOK restricts job names to filename- and wire-safe bytes: the name is
// the checkpoint filename stem and rides in JobControl hellos.
func nameOK(name string) bool {
	if name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// System builds the job's federation deterministically from the spec.
func (s JobSpec) System() *core.System {
	gen := data.FlatConfig(4, 10, s.SystemSeed)
	gen.Noise = 0.8
	return core.NewSystem(core.SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: s.Clients, Alpha: 0.5,
			MinSamples: 10, MaxSamples: 40, MeanSamples: 25, StdSamples: 8,
			Seed: s.SystemSeed + 1,
		},
		NumEdges: s.Edges,
		TestSize: 400,
		NewModel: func(ms uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{16}, 4, ms)
		},
		ModelSeed: 7,
	})
}

// TrainConfig builds the job's core.Config. Every call returns a fresh
// config (and, for SCAFFOLD, a fresh updater), so resumed and uninterrupted
// runs never share mutable state. reg receives the job's fel_core_* stream.
func (s JobSpec) TrainConfig(reg *metrics.Registry) core.Config {
	minGS, maxCoV := s.MinGS, s.MaxCoV
	if minGS <= 0 {
		minGS = 3
	}
	if maxCoV <= 0 {
		maxCoV = 0.5
	}
	cfg := core.Config{
		GlobalRounds: s.Rounds, GroupRounds: s.GroupRounds, LocalEpochs: s.LocalEpochs,
		BatchSize: s.BatchSize, LR: s.LR, SampleGroups: s.SampleGroups,
		Grouping:    grouping.CoVGrouping{Config: grouping.Config{MinGS: minGS, MaxCoV: maxCoV, MergeLeftover: true}},
		Sampling:    sampling.ESRCoV,
		Weights:     sampling.Biased,
		Seed:        s.Seed,
		CostProfile: cost.CIFARProfile(),
		CostOps:     cost.DefaultOps(),
		DropoutProb: s.DropoutProb,
		MaxParallel: s.MaxParallel,
		EvalEvery:   s.EvalEvery,
		Metrics:     reg,
	}
	if s.Scaffold {
		cfg.Local = &core.ScaffoldUpdater{NumClients: s.Clients}
		cfg.CostOps.Scaffold = true
	}
	return cfg
}

// Job is one tenant of the service: a resumable trainer plus its private
// metric registry, model-version publication state, and subscriber set.
type Job struct {
	Spec JobSpec

	svc  *Service
	reg  *metrics.Registry
	tr   *core.Trainer
	ckpt *ckptWriter // nil when the service keeps no checkpoints

	// Per-job fel_serve_job_* stream, isolated from other tenants.
	roundsCtr  *metrics.Counter
	ckptCtr    *metrics.Counter
	versionCtr *metrics.Counter

	mu      sync.Mutex
	subs    map[int]*subscriber
	nextSub int
	// version/frame are the latest published model: version counts
	// published rounds, frame is that version's one encoding — immutable
	// once built, written as-is by every subscriber's handler.
	version int
	frame   []byte

	done   chan struct{} // closed when the job finishes
	result *core.Result
	err    error
}

// newJob builds a running job from its spec, fresh or resumed.
func newJob(svc *Service, spec JobSpec, st *core.TrainerState) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	j := &Job{
		Spec: spec,
		svc:  svc,
		reg:  metrics.New(),
		subs: make(map[int]*subscriber),
		done: make(chan struct{}),
	}
	j.roundsCtr = j.reg.Counter("fel_serve_job_rounds_total")
	j.ckptCtr = j.reg.Counter("fel_serve_job_checkpoints_total")
	j.versionCtr = j.reg.Counter("fel_serve_job_versions_total")
	if svc.cfg.Dir != "" {
		j.ckpt = &ckptWriter{fs: svc.fs, dir: svc.cfg.Dir, name: spec.Name}
	}
	sys := spec.System()
	cfg := spec.TrainConfig(j.reg)
	var err error
	if st == nil {
		j.tr, err = core.NewTrainerOn(sys, cfg, core.NewExecutor(sys, cfg), nil, nil)
	} else {
		j.tr, err = core.NewTrainerResumed(sys, cfg, st)
	}
	if err != nil {
		return nil, fmt.Errorf("felserve: job %q: %w", spec.Name, err)
	}
	j.publish()
	return j, nil
}

// Name returns the job's identity.
func (j *Job) Name() string { return j.Spec.Name }

// Registry exposes the job's private metric registry — the per-tenant
// namespace whose masked snapshot the isolation tests compare.
func (j *Job) Registry() *metrics.Registry { return j.reg }

// Round returns how many global rounds the job has published. The trainer
// itself belongs to the scheduler goroutine; everyone else observes
// progress through the published version.
func (j *Job) Round() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.version
}

// Done reports whether the job has finished.
func (j *Job) Done() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the job completes and returns its result. A job
// abandoned by Service.Kill never completes; Wait on it blocks until the
// job is resubmitted to a recovered service — so harness code should Wait
// on the recovered handle, not the killed one.
func (j *Job) Wait() (*core.Result, error) {
	<-j.done
	return j.result, j.err
}

// publish encodes the trainer's current parameters as the next model
// version and offers the frame to every subscriber. Non-blocking: a slow
// subscriber just coalesces to the newest version (its queue is the
// one-slot latest pointer), which is the backpressure contract — the
// trainer never waits on a consumer.
func (j *Job) publish() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.version = j.tr.Round()
	j.announce(wire.GlobalModel, j.tr.Params(), false)
	j.versionCtr.Inc()
}

// announce is the one place a version is encoded: it builds the frame for
// the current version — a fresh buffer, because handlers may still be
// writing the previous one — and puts it in every subscriber's mailbox.
// Callers hold j.mu.
func (j *Job) announce(typ wire.Type, params []float64, final bool) {
	frame, err := wire.AppendFrame(nil, &wire.Message{Type: typ, Round: uint32(j.version), Floats: params})
	if err != nil {
		panic(fmt.Sprintf("felserve: encoding a %s frame: %v", typ, err))
	}
	j.frame = frame
	for _, sub := range j.subs {
		sub.offer(j.version, frame, final)
	}
}

// finish seals the job's result and notifies subscribers with the final
// aggregate before their connections close.
func (j *Job) finish() {
	res := j.tr.Finish()
	j.mu.Lock()
	j.result = res
	j.version = j.tr.Round()
	j.announce(wire.GlobalAggregate, res.Params, true)
	j.mu.Unlock()
	close(j.done)
}

// fail seals the job with an error (checkpoint write failure). The trainer
// has not stepped since the last publish, so the closing aggregate carries
// that version's parameters.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.err = err
	j.announce(wire.GlobalAggregate, j.tr.Params(), true)
	j.mu.Unlock()
	close(j.done)
}
