package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
)

// TestReplayBitIdenticalAcrossParallelism locks in the determinism contract
// the sampling analysis depends on: the same seed must produce bit-for-bit
// identical final weights whether training runs single-threaded or fanned
// out across workers. tensor.MatMul documents that each output element is a
// sequentially-ordered reduction regardless of GOMAXPROCS, and
// RunGroups writes group results into indexed slots; this test is
// what keeps those guarantees from regressing as more parallel code lands.
func TestReplayBitIdenticalAcrossParallelism(t *testing.T) {
	run := func(procs int) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		sys := testSystem(12, 0.5, 3)
		cfg := testConfig()
		cfg.GlobalRounds = 3
		return Train(sys, cfg).Params
	}

	base := run(1)
	if len(base) == 0 {
		t.Fatal("training produced no parameters")
	}
	for _, procs := range []int{1, 8} {
		again := run(procs)
		if len(again) != len(base) {
			t.Fatalf("GOMAXPROCS=%d: parameter count %d, want %d", procs, len(again), len(base))
		}
		for i := range base {
			if math.Float64bits(again[i]) != math.Float64bits(base[i]) {
				t.Fatalf("GOMAXPROCS=%d: param %d differs: %x vs %x (%.17g vs %.17g)",
					procs, i, math.Float64bits(again[i]), math.Float64bits(base[i]), again[i], base[i])
			}
		}
	}
}

// TestReplayBitIdenticalAcrossMaxParallel extends the determinism contract
// to the engine's intra-group client fan-out, with every stateful feature
// that could break it switched on at once: client dropout (shared dropout
// RNG per group), update compression (stateful per-client error feedback),
// and SCAFFOLD (shared server variate + per-client drift folding). The
// final weights must be bit-for-bit identical at any worker-pool size.
func TestReplayBitIdenticalAcrossMaxParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	run := func(maxParallel int) []float64 {
		sys := testSystem(12, 0.5, 3)
		cfg := testConfig()
		cfg.GlobalRounds = 3
		cfg.MaxParallel = maxParallel
		cfg.DropoutProb = 0.25
		cfg.NewCompressor = func() compress.Compressor { return compress.NewTopK(16) }
		cfg.Local = &ScaffoldUpdater{NumClients: 12}
		return Train(sys, cfg).Params
	}

	base := run(1)
	if len(base) == 0 {
		t.Fatal("training produced no parameters")
	}
	for _, par := range []int{2, 8} {
		again := run(par)
		if len(again) != len(base) {
			t.Fatalf("MaxParallel=%d: parameter count %d, want %d", par, len(again), len(base))
		}
		for i := range base {
			if math.Float64bits(again[i]) != math.Float64bits(base[i]) {
				t.Fatalf("MaxParallel=%d: param %d differs: %x vs %x (%.17g vs %.17g)",
					par, i, math.Float64bits(again[i]), math.Float64bits(base[i]), again[i], base[i])
			}
		}
	}
}

// TestReplayWideModelsPinned pins the final weights of two short runs whose
// GEMMs are far wider than the paper's — MLP 64→128→4 at batch 24, and the
// bench's train-gemm shape, MLP 256→256→10 at batch 64 — to digests recorded
// while tensor still dispatched those shapes to cache-blocked tiled kernels
// fanned out across goroutines. One row kernel per GEMM runs at every shape
// now; the digests are what says that swap, and any later kernel change, moved
// no bit, at any worker-pool size and any GOMAXPROCS.
func TestReplayWideModelsPinned(t *testing.T) {
	mlpSystem := func(classes, features, hidden int, noise float64, part data.PartitionConfig, seed uint64) *System {
		gen := data.FlatConfig(classes, features, seed)
		gen.Noise = noise
		part.Alpha, part.Seed = 0.5, seed+1
		return NewSystem(SystemConfig{
			Generator: gen,
			Partition: part,
			NumEdges:  2,
			TestSize:  200,
			NewModel: func(s uint64) *nn.Sequential {
				return nn.NewMLP(features, []int{hidden}, classes, s)
			},
			ModelSeed: 7,
		})
	}
	cases := []struct {
		name   string
		pinned string
		batch  int
		sys    func() *System
	}{
		{"mlp64x128x4_batch24", "9068b842a32fea1a", 24, func() *System {
			return mlpSystem(4, 64, 128, 0.8, data.PartitionConfig{
				NumClients: 10, MinSamples: 24, MaxSamples: 48, MeanSamples: 32, StdSamples: 8}, 3)
		}},
		{"mlp256x256x10_batch64", "1fdc496d89436605", 64, func() *System {
			return mlpSystem(10, 256, 256, 1.2, data.PartitionConfig{
				NumClients: 12, MinSamples: 64, MaxSamples: 160, MeanSamples: 112, StdSamples: 24}, 5)
		}},
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, c := range cases {
		for _, procs := range []int{1, 8} {
			for _, par := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				cfg := testConfig()
				cfg.GlobalRounds = 2
				cfg.BatchSize = c.batch
				cfg.MaxParallel = par
				got := paramDigest(Train(c.sys(), cfg).Params)
				if got != c.pinned {
					t.Errorf("%s GOMAXPROCS=%d MaxParallel=%d: parameter digest %s, pinned %s", c.name, procs, par, got, c.pinned)
				}
			}
		}
	}
}

// paramDigest is the first eight bytes of the SHA-256 of the parameters'
// big-endian Float64bits, in hex.
func paramDigest(params []float64) string {
	buf := make([]byte, 8*len(params))
	for i, v := range params {
		binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}
