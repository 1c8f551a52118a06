package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
)

// Metric names: the four universal end-to-end metrics (BENCHMARK.json's
// end_to_end list), then the end-to-end metrics the contract has no slot
// for; see metrics.go.
const (
	mSetup      = "setup_s"
	mRounds     = "rounds_per_s"
	mAccuracy   = "final_accuracy"
	mPeakRSS    = "peak_rss_mb"
	mCostRound  = "cost_per_round"
	mSpeedup    = "parallel_speedup"
	mTimeTarget = "time_to_target_s"
	mCostTarget = "cost_to_target"
	mWireBytes  = "net_wire_bytes_per_round"
	mVersions   = "serve_versions_per_s"
)

// sizing turns a tuned round count into the count one run executes: scaled
// linearly with -seconds from the 10 s the counts were tuned for, or cut to
// a handful of rounds for the smoke test.
type sizing struct {
	smoke   bool
	seconds float64
}

func (z sizing) rounds(tuned int) int {
	if z.smoke {
		return min(tuned, 3)
	}
	return max(int(math.Round(float64(tuned)*z.seconds/10)), 2)
}

// probeBudget is how long one layer probe may measure.
func (z sizing) probeBudget() time.Duration {
	if z.smoke {
		return 2 * time.Millisecond
	}
	return 120 * time.Millisecond
}

// pick returns full, or smoke under -scale smoke.
func (z sizing) pick(full, smoke int) int {
	if z.smoke {
		return smoke
	}
	return full
}

// result is everything one run of one workload produced.
type result struct {
	Workload string `json:"workload"`
	// Attempted and Failed count operations: one per global round, per
	// subscriber stream, and per correctness check. Failures names the
	// failed ones.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Notes are printed with the metrics: sample counts, censored jobs.
	Notes []string `json:"notes,omitempty"`
	// E2E holds the end-to-end metrics (universal and workload-specific),
	// always measured untraced; Layer the per-layer metrics of a traced run.
	E2E   map[string]metric `json:"e2e"`
	Layer map[string]metric `json:"layer,omitempty"`
	// Samples keeps the raw repeats behind a reported median (set-up
	// times, per-round times) so the tables can show quartiles and n.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// WindowS is the raw wall time of the untraced timed window and
	// HostSpeed the host speed observed during it, relative to nominal;
	// every reported timing is in nominal-host seconds (speed.go).
	WindowS   float64 `json:"window_s"`
	HostSpeed float64 `json:"host_speed"`
}

func newResult(name string) *result {
	return &result{
		Workload: name,
		E2E:      map[string]metric{},
		Layer:    map[string]metric{},
		Samples:  map[string][]float64{},
	}
}

func (r *result) e2e(name string, v float64, unit string) { r.E2E[name] = metric{v, unit} }

func (r *result) layer(name string, v float64, unit string) { r.Layer[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// ops counts n attempted operations that all succeeded.
func (r *result) ops(n int) { r.Attempted += n }

// check counts one correctness check as an operation, failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// workload is one named set of inputs. The driver of a run calls setup
// (timed, repeated for the setup_s median), then window on the last set-up
// (the timed work and its correctness checks), and in a traced run traced
// (spans, registries, probes) before teardown.
type workload interface {
	// setup builds everything that precedes the first timed call. It may be
	// called again after teardown.
	setup() error
	// window runs the untraced timed work on the current set-up and records
	// the end-to-end metrics, operations and checks.
	window(r *result, sm *speedometer) error
	// traced reruns the work with spans and registries attached, runs the
	// layer probes at this workload's shapes, and records the per-layer
	// metrics.
	traced(tr *tracer, r *result, sm *speedometer) error
	// teardown releases what setup built.
	teardown()
}

// workloadDef names a workload and says why it exists; make builds it for a
// seed and a sizing.
type workloadDef struct {
	name string
	why  string
	make func(seed uint64, z sizing, outDir string) workload
}

// workloads is the benchmark, in the order runs are interleaved.
var workloads = []workloadDef{
	{"train-gemm", "GEMMs past the blocked-kernel cutoff, every group every round: tensor/nn do nearly all the work, and a serial twin on the same seed measures the worker pool", newTrainGemm},
	{"train-paper", "paper-shaped population, matrices below every kernel cutoff: local SGD on the small-matrix path and worker fan-out over 12 groups dominate, and cost/time to a target accuracy is measured", newTrainPaper},
	{"pop-regroup", "100k flyweight clients regrouped every 10 rounds: almost no arithmetic, all grouping, sampling over ~20k groups and on-demand sample synthesis", newPopRegroup},
	{"net-loopback", "the same algorithm over 48 loopback TCP connections: secagg masking, wire encode/decode and the fednode round state machine outweigh local SGD", newNetLoopback},
	{"serve-fanout", "four tiny jobs under a felserve cloud with 256 closed-loop subscribers: wave scheduler, version fan-out and checkpoint fsync are the work", newServeFanout},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// derive maps the workload seed to the seed of one named consumer (system,
// partition, model, training run, …): the program sees only these.
func derive(seed, tag uint64) uint64 {
	return stats.NewRNG(seed).Split(tag).Uint64()
}

const (
	tagGenerator = iota + 1
	tagPartition
	tagModel
	tagTrain
	tagProbe
)
