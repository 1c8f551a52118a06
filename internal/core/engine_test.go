package core

import (
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/tensor"
)

// The test binary lifts the engine's physical-CPU worker cap so the -race
// pool test and the MaxParallel replay sweeps exercise real multi-worker
// concurrency even when CI runs on a single-CPU host.
func init() { testUncapWorkers = true }

// TestSGDEpochsSteadyStateAllocs locks in the zero-alloc hot path: once a
// worker's arena and the model's reuse buffers are warm, an entire local
// training pass through SGDUpdater (shuffle, batch fill incl. tail batch,
// forward, loss, backward, SGD step) must not allocate — also when the
// worker alternates between two clients whose tail batches differ in length.
func TestSGDEpochsSteadyStateAllocs(t *testing.T) {
	const bs = 7 // deliberately misaligned so the tail-batch path runs
	sys := testSystem(6, 0.5, 9)
	model := sys.NewModel(sys.ModelSeed)
	model.EnableBufferReuse()
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

// TestEngineWorkerPoolRace drives the full engine — worker pool, pooled
// group-round machines, compressor pool, SCAFFOLD's shared state — at high
// parallelism so ci.sh's race stage (go test -race ./internal/core) can
// catch any unsynchronized access.
func TestEngineWorkerPoolRace(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	sys := testSystem(16, 0.5, 11)
	cfg := testConfig()
	cfg.GlobalRounds = 2
	cfg.MaxParallel = 8
	cfg.DropoutProb = 0.2
	cfg.NewCompressor = func() compress.Compressor { return compress.NewTopK(16) }
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

// TestGroupSpaceSteadyState: the group-round machine a group borrows keeps
// its run state — per-client bookkeeping, event heap, batch scratch, result
// slots — in the same backing arrays from round to round, and the selection
// slot keeps its group vector the same way. At MaxParallel 1 one machine
// runs every group and is back on the free list when RunGroups returns.
// Three rounds warm it; replaying the same three (same draws, so the same
// event counts) may move none of them, whichever trigger flushes. The
// machine's two ends then allocate nothing warm: begin, readying it for a
// slot's round, and flush, folding a full buffer n_i-weighted into the group
// model. What a round allocates beyond them is dispatch's.
func TestGroupSpaceSteadyState(t *testing.T) {
	modes := asyncModeConfigs()
	modes["sync"] = async.Config{Delays: async.StragglerStorm()}
	for name, acfg := range modes {
		sys := asyncTestSystem(9, 5)
		cfg := asyncTestConfig()
		cfg.MaxParallel = 1
		cfg.Async = acfg
		tr := NewTrainer(sys, cfg)
		e := NewExecutor(sys, cfg).(*engine)
		run := func(round int) [5]unsafe.Pointer {
			if _, err := e.RunGroups(round, tr.Groups(), []int{0}, tr.Params()); err != nil {
				t.Fatal(err)
			}
			if len(e.idle) != 1 {
				t.Fatalf("%s: %d idle machines after a serial round, want 1", name, len(e.idle))
			}
			sp := e.idle[0]
			return [5]unsafe.Pointer{
				unsafe.Pointer(unsafe.SliceData(sp.clients)),
				unsafe.Pointer(unsafe.SliceData(sp.heap)),
				unsafe.Pointer(unsafe.SliceData(sp.batch)),
				unsafe.Pointer(unsafe.SliceData(sp.flat)),
				unsafe.Pointer(unsafe.SliceData(e.slots[0])),
			}
		}
		var warm [5]unsafe.Pointer
		for round := 0; round < 3; round++ {
			warm = run(round)
		}
		for round := 0; round < 3; round++ {
			if got := run(round); got != warm {
				t.Errorf("%s: round %d moved the run state: %v, warm %v", name, round, got, warm)
			}
		}
		sp, g := e.idle[0], tr.Groups()[0]
		if allocs := testing.AllocsPerRun(10, func() {
			sp.begin(e.slots[0], g, tr.Params(), 0)
			for i := range sp.clients {
				sp.clients[i].arrived = true
			}
			sp.flush()
			e.slots[0] = sp.end().Params
		}); allocs != 0 {
			t.Errorf("%s: begin + a full-buffer flush on the warm machine allocate %.1f objects, want 0", name, allocs)
		}
	}
}
