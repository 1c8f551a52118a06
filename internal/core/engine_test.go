package core

import (
	"maps"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// The test binary lifts the physical-CPU cap on fan-out width and Workers so
// the -race engine test and the MaxParallel replay sweeps exercise real
// multi-worker concurrency even when CI runs on a single-CPU host.
func init() { testUncapWorkers = true }

// TestSGDEpochsSteadyStateAllocs locks in the zero-alloc hot path: once a
// worker's arena and the model's layer buffers are warm, an entire local
// training pass through SGDUpdater (shuffle, batch fill incl. tail batch,
// forward, loss, backward, SGD step) must not allocate — also when the
// worker alternates between two clients whose tail batches differ in length.
func TestSGDEpochsSteadyStateAllocs(t *testing.T) {
	const bs = 7 // deliberately misaligned so the tail-batch path runs
	sys := testSystem(6, 0.5, 9)
	model := sys.NewModel(sys.ModelSeed)
	arena := newSGDArena()
	type client struct {
		id int
		x  *tensor.Tensor
		y  []int
	}
	var clients []client
	for _, c := range sys.Clients {
		x, y := sys.ClientBatch(c)
		tail := x.Shape[0] % bs
		if tail != 0 && (len(clients) == 0 || tail != clients[0].x.Shape[0]%bs) {
			clients = append(clients, client{c.ID, x, y})
		}
		if len(clients) == 2 {
			break
		}
	}
	if len(clients) != 2 {
		t.Fatalf("no two clients with distinct non-zero tails at batch size %d; pick another system seed", bs)
	}
	run := func() {
		for _, c := range clients {
			arena.rng.Reseed(123)
			SGDUpdater{}.LocalTrain(model, c.x, c.y, LocalContext{
				ClientID: c.id, Epochs: 2, BatchSize: bs, LR: 0.05,
				Rng: arena.rng, arena: arena,
			})
		}
	}
	run() // warm the arena and reuse buffers
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Fatalf("sgdEpochs steady state allocates %.1f objects per pair of passes, want 0", allocs)
	}
}

// TestEvaluateParallelMatchesSerial pins Evaluate's chunked fan-out to the
// serial reduction bit for bit.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	sys := testSystem(8, 0.5, 5)
	model := sys.NewModel(sys.ModelSeed)
	run := func(procs int) (float64, float64) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		// batch 16 forces many batches, so the parallel path really strides.
		return Evaluate(model, sys.Test, 16)
	}
	accSerial, lossSerial := run(1)
	accPar, lossPar := run(8)
	if math.Float64bits(accSerial) != math.Float64bits(accPar) ||
		math.Float64bits(lossSerial) != math.Float64bits(lossPar) {
		t.Fatalf("parallel Evaluate diverged: acc %.17g vs %.17g, loss %.17g vs %.17g",
			accPar, accSerial, lossPar, lossSerial)
	}
}

// TestEngineRace drives the full engine — lent Workers and group-round
// machines, SCAFFOLD's shared state — at high parallelism so ci.sh's race
// stage (go test -race ./internal/core) can catch any unsynchronized access.
func TestEngineRace(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	sys := testSystem(16, 0.5, 11)
	cfg := testConfig()
	cfg.GlobalRounds = 2
	cfg.MaxParallel = 8
	cfg.DropoutProb = 0.2
	cfg.Local = &ScaffoldUpdater{NumClients: 16}
	res := Train(sys, cfg)
	if res.RoundsRun != 2 {
		t.Fatalf("ran %d rounds, want 2", res.RoundsRun)
	}
}

// TestTrainParallelSpeedup checks the engine actually converts cores into
// wall-clock on multi-core hosts. The threshold is deliberately loose
// (scheduling noise, small model); the headline numbers are
// BenchmarkTrainSmall and `go run ./bench` workload train-gemm
// (parallel_speedup, bench/baseline/).
func TestTrainParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d < 4: no parallel speedup to measure", runtime.GOMAXPROCS(0))
	}
	run := func(maxParallel int) time.Duration {
		sys := testSystem(32, 0.5, 3)
		cfg := testConfig()
		cfg.GlobalRounds = 4
		cfg.SampleGroups = 8
		cfg.MaxParallel = maxParallel
		cfg.EvalEvery = cfg.GlobalRounds // eval only the final round
		start := time.Now()
		Train(sys, cfg)
		return time.Since(start)
	}
	run(1) // warm caches and code paths
	serial := run(1)
	parallel := run(0)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, parallel %v, speedup %.2fx (GOMAXPROCS=%d)",
		serial, parallel, speedup, runtime.GOMAXPROCS(0))
	if speedup < 1.2 {
		t.Errorf("parallel training speedup %.2fx < 1.2x at GOMAXPROCS=%d", speedup, runtime.GOMAXPROCS(0))
	}
}

// TestGroupSpaceSteadyState: the group-round machine a group runs on keeps
// its run state — dropout flags, result slots — in the same backing arrays
// from round to round, and the selection slot keeps its group vector the same
// way. At MaxParallel 1 the System lends one machine, which runs every group.
// Three rounds warm it; replaying the same three may move none of them. The
// machine's two ends then allocate nothing warm: begin, readying it for a
// slot's round, and fold, averaging the survivors n_i-weighted into the group
// model. What a round allocates beyond them is training's.
func TestGroupSpaceSteadyState(t *testing.T) {
	sys := oneGroupSystem(9, 5)
	cfg := oneGroupConfig()
	cfg.MaxParallel = 1
	tr := NewTrainer(sys, cfg)
	e := NewExecutor(sys, cfg).(*engine)
	out := [][]float64{make([]float64, len(tr.Params()))}
	run := func(round int) [3]unsafe.Pointer {
		if _, err := e.RunGroups(round, tr.Groups(), []int{0}, tr.Params(), out); err != nil {
			t.Fatal(err)
		}
		if n := len(sys.lend.spaces); n != 1 {
			t.Fatalf("%d machines after a serial round, want 1", n)
		}
		sp := sys.lend.spaces[0]
		return [3]unsafe.Pointer{
			unsafe.Pointer(unsafe.SliceData(sp.dropped)),
			unsafe.Pointer(unsafe.SliceData(sp.flat)),
			unsafe.Pointer(unsafe.SliceData(out[0])),
		}
	}
	var warm [3]unsafe.Pointer
	for round := 0; round < 3; round++ {
		warm = run(round)
	}
	for round := 0; round < 3; round++ {
		if got := run(round); got != warm {
			t.Errorf("round %d moved the run state: %v, warm %v", round, got, warm)
		}
	}
	sp, g := sys.lend.spaces[0], tr.Groups()[0]
	if allocs := testing.AllocsPerRun(10, func() {
		sp.begin(e, out[0], g, tr.Params(), 0)
		sp.fold()
		sp.end()
	}); allocs != 0 {
		t.Errorf("begin + a fold on the warm machine allocate %.1f objects, want 0", allocs)
	}
}

// TestStepRegistryAllocsLevel: a warm Trainer.Step with cfg.Metrics set
// allocates no more than the same Step without a registry. Its spans open on
// histograms looked up once, so the registry costs no label render and no
// lookup per client, group or round. Without one a warm Step allocates at
// most 7 objects: RunGroups keeps its machine slice on the engine, and a
// machine's rows grow by capacity, so drawing the selected members allocates
// nothing.
func TestStepRegistryAllocsLevel(t *testing.T) {
	stepAllocs := func(reg *metrics.Registry) float64 {
		cfg := oneGroupConfig()
		cfg.GlobalRounds = 100
		cfg.MaxParallel = 1
		cfg.Metrics = reg
		tr := NewTrainer(oneGroupSystem(9, 5), cfg)
		for range 3 {
			tr.Step()
		}
		return testing.AllocsPerRun(10, func() { tr.Step() })
	}
	bare, withReg := stepAllocs(nil), stepAllocs(metrics.New())
	t.Logf("%.1f objects per Step without a registry, %.1f with one", bare, withReg)
	if withReg > bare {
		t.Errorf("a Step with a registry allocates %.1f objects, %.1f without one", withReg, bare)
	}
	if bare > 7 {
		t.Errorf("a warm Step allocates %.1f objects, want at most 7", bare)
	}
}

// countingRows counts the draws a System's recipe serves, by client ID.
type countingRows struct {
	data.Rows
	mu    sync.Mutex
	draws map[int]int
}

func (c *countingRows) DrawInto(id int, x []float64, y []int, s *data.Scratch) {
	c.mu.Lock()
	c.draws[id]++
	c.mu.Unlock()
	c.Rows.DrawInto(id, x, y, s)
}

// TestMachineDrawsEachMemberOnce: a group-round machine draws each member's
// rows once per run, in its first group round, and the member's later group
// rounds of the run — K = 3 — train on the rows it holds. Two rounds, four
// groups on machines at MaxParallel 2.
func TestMachineDrawsEachMemberOnce(t *testing.T) {
	sys := testSystem(32, 0.5, 3)
	rows := &countingRows{Rows: sys.rows}
	sys.rows = rows
	cfg := testConfig()
	cfg.GroupRounds = 3
	cfg.MaxParallel = 2
	cfg.DropoutProb = 0.2
	tr := NewTrainer(sys, cfg)
	e := NewExecutor(sys, cfg).(*engine)
	selected := []int{0, 1, 2, 3}
	out := make([][]float64, len(selected))
	for si := range out {
		out[si] = make([]float64, len(tr.Params()))
	}
	for round := range 2 {
		rows.draws = map[int]int{}
		epochs := e.epochsCtr.Value()
		if _, err := e.RunGroups(round, tr.Groups(), selected, tr.Params(), out); err != nil {
			t.Fatal(err)
		}
		members := 0
		for _, si := range selected {
			for _, c := range tr.Groups()[si].Clients {
				members++
				if n := rows.draws[c.ID]; n != 1 {
					t.Errorf("round %d: client %d drawn %d times, want 1", round, c.ID, n)
				}
			}
		}
		if len(rows.draws) != members {
			t.Errorf("round %d: %d clients drawn, %d members selected", round, len(rows.draws), members)
		}
		if trained := int(e.epochsCtr.Value()-epochs) / cfg.LocalEpochs; trained != cfg.GroupRounds*members {
			t.Errorf("round %d: %d trainings for %d members over %d group rounds", round, trained, members, cfg.GroupRounds)
		}
	}
}

// TestGroupSpacesAtMostProcs: RunGroups fans out no wider than the Workers
// its System lends. With the test binary's cap lifted, MaxParallel 8 over 8
// selected groups would build 8 machines, each holding n×dim storage while
// only cpu.Procs() workers train; under the production cap the System holds
// at most cpu.Procs() after a round.
func TestGroupSpacesAtMostProcs(t *testing.T) {
	testUncapWorkers = false
	defer func() { testUncapWorkers = true }()
	sys := testSystem(32, 0.5, 3)
	cfg := testConfig()
	cfg.MaxParallel = 8
	tr := NewTrainer(sys, cfg)
	e := NewExecutor(sys, cfg).(*engine)
	if len(tr.Groups()) < 8 {
		t.Fatalf("%d groups formed, want at least 8", len(tr.Groups()))
	}
	selected := []int{0, 1, 2, 3, 4, 5, 6, 7}
	out := make([][]float64, len(selected))
	for si := range out {
		out[si] = make([]float64, len(tr.Params()))
	}
	if _, err := e.RunGroups(0, tr.Groups(), selected, tr.Params(), out); err != nil {
		t.Fatal(err)
	}
	if n := len(sys.lend.spaces); n == 0 || n > cpu.Procs() {
		t.Fatalf("%d group-round machines after an 8-group round at MaxParallel 8, want 1 to cpu.Procs() = %d", n, cpu.Procs())
	}
}

// TestFinishedRunLeavesStorageForNext: a finished run has given every
// group-round machine, worker, slot vector and the evaluator it used back to
// its System, and a run that follows on that System — here the serial rerun
// of a parallel run on the same seed — borrows them instead of building its
// own: after it finishes, the System holds exactly what the first run left,
// and the rerun lands on the same bits. A machine the System holds refers to
// no engine, group or group vector, so it keeps no finished run alive.
func TestFinishedRunLeavesStorageForNext(t *testing.T) {
	sys := testSystem(24, 0.5, 3)
	run := func(maxParallel int) []float64 {
		cfg := testConfig()
		cfg.GlobalRounds = 3
		cfg.MaxParallel = maxParallel
		return Train(sys, cfg).Params
	}
	left := func() map[unsafe.Pointer]string {
		l := &sys.lend
		held := map[unsafe.Pointer]string{}
		for _, sp := range l.spaces {
			if sp.e != nil || sp.g != nil || sp.group != nil {
				t.Fatalf("a free machine still refers to its last run: engine %v, group %v, vector %v",
					sp.e != nil, sp.g != nil, sp.group != nil)
			}
			held[unsafe.Pointer(sp)] = "machine"
		}
		for _, w := range l.workers {
			held[unsafe.Pointer(w)] = "worker"
		}
		for _, v := range l.vecs {
			held[unsafe.Pointer(unsafe.SliceData(v))] = "slot vector"
		}
		if l.eval != nil {
			held[unsafe.Pointer(l.eval)] = "evaluator"
		}
		return held
	}
	parallel := run(2)
	first := left()
	kinds := map[string]int{}
	for _, k := range first {
		kinds[k]++
	}
	// Workers are built only while two clients train at once, so a loaded
	// host may see one.
	if kinds["machine"] != 2 || kinds["worker"] < 1 || kinds["worker"] > 2 || kinds["slot vector"] != 3 || kinds["evaluator"] != 1 {
		t.Fatalf("a finished MaxParallel 2 run with S = 3 left %v, want 2 machines, 1 or 2 workers, 3 slot vectors, 1 evaluator", kinds)
	}
	serial := run(1)
	if second := left(); !maps.Equal(second, first) {
		kept := 0
		for p, k := range second {
			if first[p] == k {
				kept++
			}
		}
		t.Fatalf("after the serial rerun the System holds %d pieces of storage, %d of them the first run's; want exactly the first run's %d",
			len(second), kept, len(first))
	}
	if !sameFloatBits(parallel, serial) {
		t.Fatal("the serial rerun in the parallel run's storage trained different weights")
	}
}

// TestConcurrentRunsOnOneSystem: runs stepping at the same time on one
// System — a first wave that builds its storage, then a second that takes
// what the first left — each train the weights they train alone. Under
// -race this also checks the lender's locking.
func TestConcurrentRunsOnOneSystem(t *testing.T) {
	config := func(j int) Config {
		cfg := testConfig()
		cfg.GlobalRounds = 3
		cfg.MaxParallel = 2
		cfg.Seed += uint64(j)
		return cfg
	}
	const jobs = 3
	var alone [jobs][]float64
	for j := range alone {
		alone[j] = Train(testSystem(24, 0.5, 3), config(j)).Params
	}
	sys := testSystem(24, 0.5, 3)
	for wave := range 2 {
		var together [jobs][]float64
		cpu.Each(jobs, jobs, func(_, j int) { together[j] = Train(sys, config(j)).Params })
		for j := range alone {
			if !sameFloatBits(alone[j], together[j]) {
				t.Errorf("wave %d, job %d trained different weights beside two others on one System", wave, j)
			}
		}
	}
}

// TestRunsShareOneLender: every run on a System borrows its storage from the
// System for the call that uses it and gives it back before the call
// returns, so no run strands storage or holds a set of its own. Both cases
// run under the production cap on Workers, cpu.Procs(). (a) A MaxParallel 2
// Trainer stepped twice and dropped without Finish, as a killed serving job
// is, leaves its workers and evaluator behind: a Train that follows builds
// one model, its global init. It runs at
// GOMAXPROCS 1, where the cap is one Worker, so what the dropped run built
// does not hinge on whether two of its clients ever trained at once. (b)
// Three concurrent MaxParallel 2 runs at GOMAXPROCS 2 build at most
// cpu.Procs() worker models between them, beside their three global inits
// (the first of which the System scores on).
func TestRunsShareOneLender(t *testing.T) {
	testUncapWorkers = false
	defer func() { testUncapWorkers = true }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	counted := func() (*System, *atomic.Int64) {
		sys := testSystem(24, 0.5, 3)
		var built atomic.Int64
		newModel := sys.NewModel
		sys.NewModel = func(s uint64) *nn.Sequential {
			built.Add(1)
			return newModel(s)
		}
		return sys, &built
	}
	config := func(j int) Config {
		cfg := testConfig()
		cfg.GlobalRounds = 3
		cfg.MaxParallel = 2
		cfg.Seed += uint64(j)
		return cfg
	}

	sys, built := counted()
	dropped := NewTrainer(sys, config(0))
	dropped.Step()
	dropped.Step()
	built.Store(0)
	Train(sys, config(0))
	if n := built.Load(); n != 1 {
		t.Errorf("(a) a Train after a run dropped without Finish built %d models, want 1: its global init", n)
	}

	runtime.GOMAXPROCS(2)
	const jobs = 3
	sys, built = counted()
	cpu.Each(jobs, jobs, func(_, j int) { Train(sys, config(j)) })
	if n := built.Load() - jobs; n > int64(cpu.Procs()) {
		t.Errorf("(b) %d concurrent runs built %d worker models, want at most cpu.Procs() = %d", jobs, n, cpu.Procs())
	}
}

// wholeEdgeGrouping forms exactly one group per edge holding every client —
// the tests use it to pin the group size precisely.
type wholeEdgeGrouping struct{}

func (wholeEdgeGrouping) Name() string { return "WholeEdge" }

func (wholeEdgeGrouping) Validate() error { return nil }

func (wholeEdgeGrouping) Form(clients []*data.Client, classes, edge, firstID int, _ *stats.RNG) []*grouping.Group {
	return []*grouping.Group{grouping.NewGroup(firstID, edge, clients, classes)}
}

// oneGroupSystem is a single-edge population of exactly n clients, sized
// for speed: the whole-edge grouping turns it into one group of n.
func oneGroupSystem(n int, seed uint64) *System {
	gen := data.FlatConfig(4, 10, seed)
	gen.Noise = 0.8
	return NewSystem(SystemConfig{
		Generator: gen,
		Partition: data.PartitionConfig{
			NumClients: n, Alpha: 0.5,
			MinSamples: 8, MaxSamples: 16, MeanSamples: 12, StdSamples: 3,
			Seed: seed + 1,
		},
		NumEdges: 1,
		TestSize: 64,
		NewModel: func(s uint64) *nn.Sequential {
			return nn.NewMLP(10, []int{8}, 4, s)
		},
		ModelSeed: 7,
	})
}

// oneGroupConfig trains oneGroupSystem's group under 30 % dropout.
func oneGroupConfig() Config {
	return Config{
		GlobalRounds: 2, GroupRounds: 2, LocalEpochs: 1,
		BatchSize: 8, LR: 0.05, SampleGroups: 1,
		Grouping:    wholeEdgeGrouping{},
		Sampling:    sampling.Random,
		Weights:     sampling.Biased,
		Seed:        42,
		DropoutProb: 0.3,
		CostProfile: cost.CIFARProfile(),
		CostOps:     cost.DefaultOps(),
	}
}

func sameFloatBits(a, b []float64) bool {
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
