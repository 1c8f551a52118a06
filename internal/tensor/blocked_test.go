package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// gemmShapes covers tile interiors, exact tile boundaries, one-past
// boundaries, and ragged tails for the gemmMC=64 / gemmNC=128 / gemmKC=128
// blocking. Golden bit-equality across these shapes pins the determinism
// contract: blocked and naive kernels must agree on every Float64bits.
var gemmShapes = [][3]int{
	{1, 4, 4}, {3, 7, 5}, {4, 128, 128}, {5, 129, 130},
	{63, 127, 127}, {64, 128, 128}, {65, 129, 129}, {70, 130, 90},
	{128, 64, 256}, {96, 257, 31}, {33, 300, 17}, {127, 16, 255},
}

// sparsify zeroes out roughly frac of x's entries, deterministically.
func sparsify(rng *stats.RNG, x []float64, frac float64) {
	for i := range x {
		if rng.Float64() < frac {
			x[i] = 0
		}
	}
}

// bitsEqual reports the first index where got and want differ in bits, or -1.
func bitsDiffer(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestBlockedMatMulGoldenBits pins blockedMatMul to the naive row kernel,
// bit for bit, across tile-boundary shapes and sparsity levels (the sparse
// cases prove the zero-skip in the row kernels and the no-skip blocked
// kernels still agree exactly).
func TestBlockedMatMulGoldenBits(t *testing.T) {
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, frac := range []float64{0, 0.5, 0.95} {
			rng := stats.NewRNG(uint64(m*1000000 + k*1000 + n))
			a := randomTensor(rng, m, k)
			b := randomTensor(rng, k, n)
			sparsify(rng, a.Data, frac)
			want := New(m, n)
			matmulRows(want.Data, a.Data, b.Data, 0, m, k, n)
			got := New(m, n)
			blockedMatMul(got.Data, a.Data, b.Data, m, k, n)
			if i := bitsDiffer(got.Data, want.Data); i >= 0 {
				t.Fatalf("MatMul %dx%dx%d frac=%.2f: bit mismatch at %d: %x vs %x",
					m, k, n, frac, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestBlockedMatMulATGoldenBits pins blockedMatMulAT to matmulATRows.
func TestBlockedMatMulATGoldenBits(t *testing.T) {
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, frac := range []float64{0, 0.5, 0.95} {
			rng := stats.NewRNG(uint64(m*999999 + k*997 + n))
			a := randomTensor(rng, k, m) // transposed operand layout
			b := randomTensor(rng, k, n)
			sparsify(rng, a.Data, frac)
			want := New(m, n)
			matmulATRows(want.Data, a.Data, b.Data, 0, m, k, m, n)
			got := New(m, n)
			blockedMatMulAT(got.Data, a.Data, b.Data, m, k, n)
			if i := bitsDiffer(got.Data, want.Data); i >= 0 {
				t.Fatalf("MatMulAT %dx%dx%d frac=%.2f: bit mismatch at %d", m, k, n, frac, i)
			}
		}
	}
}

// TestBlockedMatMulBTGoldenBits pins blockedMatMulBT to matmulBTRows —
// including the sparse cases, which additionally prove the new zero-skip in
// matmulBTRows changes no bits versus the skip-free blocked accumulation.
func TestBlockedMatMulBTGoldenBits(t *testing.T) {
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, frac := range []float64{0, 0.5, 0.95} {
			rng := stats.NewRNG(uint64(m*31337 + k*271 + n))
			a := randomTensor(rng, m, k)
			b := randomTensor(rng, n, k) // transposed operand layout
			sparsify(rng, a.Data, frac)
			want := New(m, n)
			matmulBTRows(want.Data, a.Data, b.Data, 0, m, k, n)
			got := New(m, n)
			blockedMatMulBT(got.Data, a.Data, b.Data, m, k, n)
			if i := bitsDiffer(got.Data, want.Data); i >= 0 {
				t.Fatalf("MatMulBT %dx%dx%d frac=%.2f: bit mismatch at %d", m, k, n, frac, i)
			}
		}
	}
}

// TestBlockedParallelBitIdentical drives the goroutine tile grid (forced
// GOMAXPROCS=4) and checks it produces the same bits as the inline serial
// tile loop. The problem is large enough to cross parallelThreshold.
func TestBlockedParallelBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer func() { runtime.GOMAXPROCS(old); SyncProcs() }()

	rng := stats.NewRNG(11)
	m, k, n := 130, 140, 150
	a := randomTensor(rng, m, k)
	b := randomTensor(rng, k, n)
	at := randomTensor(rng, k, m)
	bt := randomTensor(rng, n, k)

	runtime.GOMAXPROCS(1)
	SyncProcs()
	serial, serialAT, serialBT := New(m, n), New(m, n), New(m, n)
	blockedMatMul(serial.Data, a.Data, b.Data, m, k, n)
	blockedMatMulAT(serialAT.Data, at.Data, b.Data, m, k, n)
	blockedMatMulBT(serialBT.Data, a.Data, bt.Data, m, k, n)

	runtime.GOMAXPROCS(4)
	SyncProcs()
	par, parAT, parBT := New(m, n), New(m, n), New(m, n)
	blockedMatMul(par.Data, a.Data, b.Data, m, k, n)
	blockedMatMulAT(parAT.Data, at.Data, b.Data, m, k, n)
	blockedMatMulBT(parBT.Data, a.Data, bt.Data, m, k, n)

	if i := bitsDiffer(par.Data, serial.Data); i >= 0 {
		t.Fatalf("MatMul parallel tiles diverge from serial at %d", i)
	}
	if i := bitsDiffer(parAT.Data, serialAT.Data); i >= 0 {
		t.Fatalf("MatMulAT parallel tiles diverge from serial at %d", i)
	}
	if i := bitsDiffer(parBT.Data, serialBT.Data); i >= 0 {
		t.Fatalf("MatMulBT parallel tiles diverge from serial at %d", i)
	}
}

// TestBlockedToggleBitIdentical checks the public dispatchers produce
// identical bits with blocking on and off — the property the bench grid's
// bit_identical column asserts end to end.
func TestBlockedToggleBitIdentical(t *testing.T) {
	defer SetBlockedGEMM(true)
	rng := stats.NewRNG(17)
	m, k, n := 96, 128, 144
	a := randomTensor(rng, m, k)
	b := randomTensor(rng, k, n)

	SetBlockedGEMM(true)
	if !BlockedGEMM() {
		t.Fatal("BlockedGEMM() false after SetBlockedGEMM(true)")
	}
	on := New(m, n)
	MatMul(on, a, b)

	SetBlockedGEMM(false)
	if BlockedGEMM() {
		t.Fatal("BlockedGEMM() true after SetBlockedGEMM(false)")
	}
	off := New(m, n)
	MatMul(off, a, b)

	if i := bitsDiffer(on.Data, off.Data); i >= 0 {
		t.Fatalf("blocked and naive dispatch diverge at %d", i)
	}
}

// TestSparseDispatchFallsBack checks the per-kernel sparsity routing: a
// ReLU-grade (~50% zero) left operand sends MatMul/MatMulAT back to the
// zero-skipping row kernels, while MatMulBT — whose cutoff is
// sparseCutoffNever — stays blocked at any sparsity.
func TestSparseDispatchFallsBack(t *testing.T) {
	rng := stats.NewRNG(23)
	m, k, n := 64, 128, 128
	a := randomTensor(rng, m, k)
	sparsify(rng, a.Data, 0.5)
	if useBlocked(m, k, n, a.Data, blockedSparseCutoff) {
		t.Fatal("useBlocked should decline a 50%-zero left operand for MatMul/MatMulAT")
	}
	if !useBlocked(m, k, n, a.Data, sparseCutoffNever) {
		t.Fatal("useBlocked should keep MatMulBT blocked regardless of sparsity")
	}
	dense := randomTensor(rng, m, k)
	if !useBlocked(m, k, n, dense.Data, blockedSparseCutoff) {
		t.Fatal("useBlocked should accept a dense operand of this size")
	}
}

// TestBlockedSteadyStateAllocs checks the pooled packing buffers hold: after
// warmup, a serial blocked matmul performs no per-call heap allocation
// beyond the single dispatch closure.
func TestBlockedSteadyStateAllocs(t *testing.T) {
	rng := stats.NewRNG(29)
	m, k, n := 64, 128, 128
	a := randomTensor(rng, m, k)
	b := randomTensor(rng, k, n)
	dst := New(m, n)
	blockedMatMul(dst.Data, a.Data, b.Data, m, k, n) // warm the pack pool
	allocs := testing.AllocsPerRun(10, func() {
		blockedMatMul(dst.Data, a.Data, b.Data, m, k, n)
	})
	if allocs > 1 {
		t.Fatalf("steady-state blocked MatMul allocates %.0f times per call, want ≤ 1", allocs)
	}
}

// benchShapes are the sizes the committed baseline in BENCHMARKS.md refers
// to. The paper_* cases are the five GEMMs of one SGD step of the paper-sized
// MLP (24→32→10, batch 16) — forward x·W₁ and h·W₂ (MatMul), dW₁ = xᵀ·dh and
// dW₂ = hᵀ·dy (MatMulAT), dh = dy·W₂ᵀ (MatMulBT) — with the ~50 % exact
// zeros a post-ReLU left operand has; all sit below blockedMinWork, where
// only the row kernels run. "medium" and "large" match the big-model layer
// shapes train-gemm trains.
var benchShapes = []struct {
	name    string
	m, k, n int
	zeros   float64 // exact-zero fraction of the left operand
}{
	{"paper_16x24x32", 16, 24, 32, 0},
	{"paper_16x32x10", 16, 32, 10, 0.5},
	{"paper_24x16x32", 24, 16, 32, 0},
	{"paper_32x16x10", 32, 16, 10, 0.5},
	{"paper_16x10x32", 16, 10, 32, 0},
	{"medium_48x96x192", 48, 96, 192, 0},
	{"large_64x256x256", 64, 256, 256, 0},
}

// benchKernels runs one kernel over benchShapes, blocked and naive; aT/bT say
// which operand the kernel takes transposed. Below blockedMinWork there is
// only one path, so the blocked mode is skipped.
func benchKernels(b *testing.B, aT, bT bool, run func(dst, a, bb *Tensor)) {
	for _, sh := range benchShapes {
		for _, mode := range []string{"naive", "blocked"} {
			if mode == "blocked" && sh.m*sh.k*sh.n < blockedMinWork {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", sh.name, mode), func(b *testing.B) {
				defer SetBlockedGEMM(true)
				SetBlockedGEMM(mode == "blocked")
				rng := stats.NewRNG(7)
				aShape, bShape := []int{sh.m, sh.k}, []int{sh.k, sh.n}
				if aT {
					aShape = []int{sh.k, sh.m}
				}
				if bT {
					bShape = []int{sh.n, sh.k}
				}
				a, bb := randomTensor(rng, aShape...), randomTensor(rng, bShape...)
				sparsify(rng, a.Data, sh.zeros)
				dst := New(sh.m, sh.n)
				b.SetBytes(int64(8 * sh.m * sh.k * sh.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(dst, a, bb)
				}
			})
		}
	}
}

func BenchmarkMatMul(b *testing.B)   { benchKernels(b, false, false, MatMul) }
func BenchmarkMatMulAT(b *testing.B) { benchKernels(b, true, false, MatMulAT) }
func BenchmarkMatMulBT(b *testing.B) { benchKernels(b, false, true, MatMulBT) }

// BenchmarkMatMulSparse measures the zero-skip question per kernel: row
// kernels (skip) vs blocked kernels (no skip, must not be dispatched here —
// call directly) at 0/50/90% left-operand sparsity. The committed conclusion
// lives in BENCHMARKS.md next to blockedSparseCutoff.
func BenchmarkMatMulSparse(b *testing.B) {
	const m, k, n = 64, 128, 128
	for _, frac := range []float64{0, 0.5, 0.9} {
		for _, mode := range []string{"rows_skip", "blocked_noskip"} {
			b.Run(fmt.Sprintf("zeros_%.0f%%/%s", frac*100, mode), func(b *testing.B) {
				rng := stats.NewRNG(13)
				a := randomTensor(rng, m, k)
				bb := randomTensor(rng, k, n)
				sparsify(rng, a.Data, frac)
				dst := New(m, n)
				b.SetBytes(int64(8 * m * k * n))
				b.ResetTimer()
				if mode == "rows_skip" {
					for i := 0; i < b.N; i++ {
						matmulRows(dst.Data, a.Data, bb.Data, 0, m, k, n)
					}
				} else {
					for i := 0; i < b.N; i++ {
						blockedMatMul(dst.Data, a.Data, bb.Data, m, k, n)
					}
				}
			})
		}
	}
}

// BenchmarkMatMulBTSparse is the same census for the a×bᵀ kernel, whose
// zero-skip is new in this change.
func BenchmarkMatMulBTSparse(b *testing.B) {
	const m, k, n = 64, 128, 128
	for _, frac := range []float64{0, 0.5, 0.9} {
		for _, mode := range []string{"rows_skip", "blocked_noskip"} {
			b.Run(fmt.Sprintf("zeros_%.0f%%/%s", frac*100, mode), func(b *testing.B) {
				rng := stats.NewRNG(13)
				a := randomTensor(rng, m, k)
				bb := randomTensor(rng, n, k)
				sparsify(rng, a.Data, frac)
				dst := New(m, n)
				b.SetBytes(int64(8 * m * k * n))
				b.ResetTimer()
				if mode == "rows_skip" {
					for i := 0; i < b.N; i++ {
						matmulBTRows(dst.Data, a.Data, bb.Data, 0, m, k, n)
					}
				} else {
					for i := 0; i < b.N; i++ {
						blockedMatMulBT(dst.Data, a.Data, bb.Data, m, k, n)
					}
				}
			})
		}
	}
}
