// Package felserve turns the one-shot fednode cloud into a long-running,
// multi-tenant federation service: many federation jobs run concurrently on
// one cloud process, each with its own isolated RNG streams and a private
// metric registry; a single scheduler interleaves their global rounds
// fairly (one round per runnable job per wave, waves executed in parallel);
// every job's cross-round state — global model, sampling-stream PCG words,
// SCAFFOLD variates, cost counters — is serialized through the wire codec
// (wire.Checkpoint frames) into a durable per-job checkpoint file — two
// slots overwritten alternately in place, so each checkpoint is one write and
// one fsync and a torn write leaves the previous checkpoint (ckptfile.go) —
// so a cloud killed mid-round and restarted resumes every in-flight job with
// final weights bit-identical to an uninterrupted run; and an
// admission-control front door multiplexes subscriber connections over any
// net.Listener, capping subscribers per job and coalescing model-version
// broadcasts into a one-slot latest-wins queue so slow consumers exert
// backpressure on themselves, never on training. A version is encoded once,
// when it is published, and those frame bytes are written to every
// subscriber. Late joiners — including
// subscribers to already-completed jobs — adopt the current model version
// immediately, generalizing fednode's crash-rejoin adoption.
//
// Observability: the service-level registry carries the fel_serve_* schema
// (jobs submitted/recovered/completed, rounds, checkpoints written, their
// bytes, how many Recover quarantined as unreadable and how many it resumed
// from the older slot because the newest was torn,
// subscribers admitted/active and rejected by reason — unknown_job, busy,
// malformed_hello, hello_timeout — versions sent); each job's private
// registry carries its own fel_core_* training stream plus
// fel_serve_job_* counters, which is what makes the tenant-isolation proof
// (byte-identical masked snapshots, concurrent vs. serial) checkable.
package felserve

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// Config parameterizes a Service.
type Config struct {
	// Dir is the checkpoint directory; "" disables durability (jobs run
	// in-memory only and cannot be recovered).
	Dir string
	// CheckpointEvery writes a job's checkpoint every n completed rounds
	// (<= 0 means every round), synchronously, in the round's turn: the
	// write overwrites the older of the two slots in the job's file and
	// syncs it. The final round always checkpoints before the job is
	// retired, and a job's checkpoint file is removed once the job
	// completes. No file exists before a job's first due checkpoint.
	CheckpointEvery int
	// MaxSubscribersPerJob caps admitted subscribers per job (<= 0: 4096).
	MaxSubscribersPerJob int
	// HaltAfterWaves, when positive, stops the scheduler abruptly after
	// that many scheduling waves — no drain, no exit checkpoint — which is
	// how tests and the kill-cloud chaos demo simulate a cloud crash at a
	// deterministic round boundary. 0 means run until Close.
	HaltAfterWaves int
	// StartHeld keeps the scheduler parked until Start is called, so a
	// batch of jobs can be registered before the first wave — which makes
	// multi-tenant wave alignment (and thus kill-round reporting)
	// deterministic.
	StartHeld bool
	// Registry receives the service-level fel_serve_* schema (nil: a
	// private registry).
	Registry *metrics.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Service is a running multi-job federation cloud.
type Service struct {
	cfg Config
	fs  fileSystem // the checkpoint writers' file system
	reg *metrics.Registry

	submitted  *metrics.Counter
	recovered  *metrics.Counter
	completed  *metrics.Counter
	failed     *metrics.Counter
	roundsCtr  *metrics.Counter
	ckpts      *metrics.Counter
	ckptBytes  *metrics.Counter
	ckptsBad   *metrics.Counter // unreadable checkpoints Recover moved aside
	ckptsOlder *metrics.Counter // checkpoints Recover read from the older slot, the newest being torn
	activeJobs *metrics.Gauge

	subAdmitted *metrics.Counter
	subActive   *metrics.Gauge
	versionsCtr *metrics.Counter

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []*Job // submission order: the fairness and wave ordering
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	stopped   bool

	wake      chan struct{}
	start     chan struct{} // closed by Start (immediately unless StartHeld)
	startOnce sync.Once
	quit      chan struct{} // closed once, by stop
	closing   chan struct{} // same lifetime as quit; selected on by handlers
	schedDone chan struct{}
	connWG    sync.WaitGroup
}

// New starts a service. The scheduler goroutine runs until Close or Kill
// (or the configured HaltAfterWaves crash point).
func New(cfg Config) *Service { return newService(cfg, osFS{}) }

// newService is New with the checkpoint writers' file system given.
func newService(cfg Config, fs fileSystem) *Service {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.New()
	}
	s := &Service{
		cfg:         cfg,
		fs:          fs,
		reg:         reg,
		submitted:   reg.Counter("fel_serve_jobs_submitted_total"),
		recovered:   reg.Counter("fel_serve_jobs_recovered_total"),
		completed:   reg.Counter("fel_serve_jobs_completed_total"),
		failed:      reg.Counter("fel_serve_jobs_failed_total"),
		roundsCtr:   reg.Counter("fel_serve_rounds_total"),
		ckpts:       reg.Counter("fel_serve_checkpoints_total"),
		ckptBytes:   reg.Counter("fel_serve_checkpoint_bytes_total"),
		ckptsBad:    reg.Counter("fel_serve_checkpoints_quarantined_total"),
		ckptsOlder:  reg.Counter("fel_serve_checkpoint_fallbacks_total"),
		activeJobs:  reg.Gauge("fel_serve_active_jobs"),
		subAdmitted: reg.Counter("fel_serve_subscribers_admitted_total"),
		subActive:   reg.Gauge("fel_serve_subscribers_active"),
		versionsCtr: reg.Counter("fel_serve_versions_sent_total"),
		jobs:        make(map[string]*Job),
		conns:       make(map[net.Conn]struct{}),
		wake:        make(chan struct{}, 1),
		start:       make(chan struct{}),
		quit:        make(chan struct{}),
		closing:     make(chan struct{}),
		schedDone:   make(chan struct{}),
	}
	if !cfg.StartHeld {
		s.Start()
	}
	go s.scheduler()
	return s
}

// Start releases a StartHeld scheduler. Idempotent; a no-op for services
// that started immediately.
func (s *Service) Start() {
	s.startOnce.Do(func() { close(s.start) })
}

// Registry exposes the service-level metric registry.
func (s *Service) Registry() *metrics.Registry { return s.reg }

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit registers a new job and schedules it. The job name must be unique
// among live and completed jobs of this service instance.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	j, err := newJob(s, spec, nil)
	if err != nil {
		return nil, err
	}
	if err := s.register(j); err != nil {
		return nil, err
	}
	s.submitted.Inc()
	s.logf("job %s: submitted (%d clients, %d edges, %d rounds)",
		spec.Name, spec.Clients, spec.Edges, spec.Rounds)
	return j, nil
}

// Recover scans the checkpoint directory and resubmits every job found
// there, resumed from its snapshot. Returns the recovered jobs sorted by
// name. A service without a Dir recovers nothing. A job resumes from the
// newest valid slot of its file and goes on overwriting that file; one
// resumed from the older slot because the newest was torn mid-write is
// counted in fel_serve_checkpoint_fallbacks_total. A checkpoint with no
// valid slot is renamed to <name>.ckpt.bad and counted in
// fel_serve_checkpoints_quarantined_total; the scan goes on, so one corrupt
// file never strands the other tenants.
func (s *Service) Recover() ([]*Job, error) {
	if s.cfg.Dir == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.Dir, "*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	jobs := make([]*Job, 0, len(paths))
	for _, path := range paths {
		spec, st, read, err := loadCheckpoint(path)
		if err != nil {
			if rerr := os.Rename(path, path+".bad"); rerr != nil {
				return jobs, fmt.Errorf("felserve: recover %s: %w (quarantine failed: %v)", path, err, rerr)
			}
			s.ckptsBad.Inc()
			s.logf("recover: quarantined %s as %s.bad: %v", path, filepath.Base(path), err)
			continue
		}
		if read.fellBack {
			s.ckptsOlder.Inc()
			s.logf("recover: %s: the newest slot is torn; resuming from the older one", path)
		}
		j, err := newJob(s, spec, st)
		if err != nil {
			return jobs, err
		}
		if path == checkpointPath(s.cfg.Dir, spec.Name) {
			j.ckpt.slot, j.ckpt.newest = read.size, read.slot
		}
		if err := s.register(j); err != nil {
			return jobs, err
		}
		s.recovered.Inc()
		s.logf("job %s: recovered at round %d/%d", spec.Name, st.Round, spec.Rounds)
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// Job returns a submitted or recovered job by name (nil when unknown).
func (s *Service) Job(name string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[name]
}

func (s *Service) register(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return fmt.Errorf("felserve: service is stopped")
	}
	if _, dup := s.jobs[j.Name()]; dup {
		return fmt.Errorf("felserve: job %q already exists", j.Name())
	}
	s.jobs[j.Name()] = j
	s.order = append(s.order, j)
	s.activeJobs.Add(1)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return nil
}

// runnable returns the jobs still training, in submission order.
func (s *Service) runnable() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, j := range s.order {
		if !j.Done() {
			out = append(out, j)
		}
	}
	return out
}

// scheduler is the service's only trainer-touching goroutine. It runs in
// waves: each wave grants every runnable job exactly one global round, with
// the rounds of a wave executing concurrently — fair interleaving by
// construction, no tenant can starve another.
func (s *Service) scheduler() {
	defer close(s.schedDone)
	select {
	case <-s.start:
	case <-s.quit:
		return
	}
	waves := 0
	for {
		jobs := s.runnable()
		if len(jobs) == 0 {
			select {
			case <-s.quit:
				return
			case <-s.wake:
				continue
			}
		}
		select {
		case <-s.quit:
			return
		default:
		}
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j *Job) {
				defer wg.Done()
				s.turn(j)
			}(j)
		}
		wg.Wait()
		waves++
		if s.cfg.HaltAfterWaves > 0 && waves >= s.cfg.HaltAfterWaves {
			s.logf("scheduler: halting after wave %d (simulated crash)", waves)
			return
		}
	}
}

// turn advances one job by one global round, publishes the new model
// version, and checkpoints when due. Only the scheduler calls it.
func (s *Service) turn(j *Job) {
	j.tr.Step()
	j.roundsCtr.Inc()
	s.roundsCtr.Inc()
	j.publish()

	finished := j.tr.Done()
	every := s.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	if j.ckpt != nil && (finished || j.tr.Round()%every == 0) {
		if err := s.checkpointJob(j); err != nil {
			s.logf("job %s: checkpoint failed: %v", j.Name(), err)
			if cerr := j.ckpt.close(); cerr != nil {
				s.logf("job %s: closing checkpoint: %v", j.Name(), cerr)
			}
			s.failed.Inc()
			s.activeJobs.Add(-1)
			j.fail(err)
			return
		}
	}
	if finished {
		j.finish()
		s.completed.Inc()
		s.activeJobs.Add(-1)
		// A finished job must not be resurrected by Recover.
		if j.ckpt != nil {
			if err := j.ckpt.remove(); err != nil {
				s.logf("job %s: removing checkpoint: %v", j.Name(), err)
			}
		}
		s.logf("job %s: completed after %d rounds", j.Name(), j.tr.Round())
	}
}

// checkpointJob snapshots j's trainer into the job's checkpoint file.
func (s *Service) checkpointJob(j *Job) error {
	st, err := j.tr.ExportState()
	if err != nil {
		return err
	}
	n, err := j.ckpt.save(j.Spec, st)
	if err != nil {
		return err
	}
	j.ckptCtr.Inc()
	s.ckpts.Inc()
	s.ckptBytes.Add(int64(n))
	return nil
}

// Halted is closed when the scheduler has exited — after Close or Kill,
// or at the configured HaltAfterWaves crash point. The kill-cloud demo
// waits on it before "restarting" the cloud.
func (s *Service) Halted() <-chan struct{} { return s.schedDone }

// Wait blocks until every currently registered job has finished.
func (s *Service) Wait() {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	for _, j := range jobs {
		<-j.done
	}
}

// Close shuts the service down gracefully: the scheduler drains its current
// wave and stops, every unfinished job gets a final checkpoint (when a Dir
// is configured), every checkpoint file is closed, and all listeners,
// subscriber connections, and handler goroutines are joined. Safe to call
// more than once.
func (s *Service) Close() error { return s.stop(true) }

// Kill is the crash path: like Close but without the exit checkpoints, so
// the on-disk state is whatever the last due checkpoint wrote — exactly
// what a SIGKILL would leave behind (the files are still closed). Jobs still
// in flight never complete on this instance; a new service pointed at the
// same Dir recovers them.
func (s *Service) Kill() {
	//lint:ignore dropped-error the crash path takes no exit checkpoints, so stop has nothing to fail
	s.stop(false)
}

func (s *Service) stop(graceful bool) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.schedDone
		s.connWG.Wait()
		return nil
	}
	s.stopped = true
	s.mu.Unlock()

	close(s.quit)
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-s.schedDone

	var firstErr error
	for _, j := range s.snapshotOrder() {
		if j.ckpt == nil {
			continue
		}
		if graceful && !j.Done() {
			if err := s.checkpointJob(j); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("felserve: exit checkpoint for %s: %w", j.Name(), err)
			}
		}
		if err := j.ckpt.close(); err != nil && graceful && firstErr == nil {
			firstErr = fmt.Errorf("felserve: closing checkpoint of %s: %w", j.Name(), err)
		}
	}

	// Unblock every accept loop and subscriber handler, then join them.
	close(s.closing)
	s.mu.Lock()
	for _, ln := range s.listeners {
		//lint:ignore dropped-error shutdown-path close; the listener is being abandoned either way
		ln.Close()
	}
	s.listeners = nil
	for c := range s.conns {
		//lint:ignore dropped-error shutdown-path close; the connection is being abandoned either way
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return firstErr
}

func (s *Service) snapshotOrder() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}
