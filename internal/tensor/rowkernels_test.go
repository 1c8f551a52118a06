package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// refGEMM is the contract the row kernels are pinned to: every output
// element is the sum, in ascending p from +0, of float64(a·b) over the
// entries of the left operand that are not exactly zero. aT reads a as k×m,
// bT reads b as n×k.
func refGEMM(a, b []float64, m, k, n int, aT, bT bool) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				av := a[i*k+p]
				if aT {
					av = a[p*m+i]
				}
				if av == 0 {
					continue
				}
				bv := b[p*n+j]
				if bT {
					bv = b[j*k+p]
				}
				s += float64(av * bv)
			}
			out[i*n+j] = s
		}
	}
	return out
}

// sparsify zeroes out roughly frac of x's entries, deterministically.
func sparsify(rng *stats.RNG, x []float64, frac float64) {
	for i := range x {
		if rng.Float64() < frac {
			x[i] = 0
		}
	}
}

// sameResult compares bit for bit with one allowance: two NaNs match whatever
// their payloads. Which operand's payload an add of two NaNs keeps is decided by
// the instruction's operand order, i.e. by the register allocator, so no
// kernel — old or new — can promise it; that a NaN stays a NaN is the part a
// diverged model depends on.
func sameResult(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// operandFill plants one pattern in fresh random operands: a is the left one,
// aCols wide as stored, and pOf maps an index into a to the reduction index p
// the kernel under test reads that entry at.
type operandFill func(rng *stats.RNG, a, b []float64, aCols int, pOf func(int) int)

// dropP zeroes the left entries whose reduction index satisfies drop: every
// output row then meets the same run of zeros and non-zeros along p, placed
// against accumRows' staging boundary.
func dropP(drop func(p int) bool) operandFill {
	return func(_ *stats.RNG, a, _ []float64, _ int, pOf func(int) int) {
		for i := range a {
			if drop(pOf(i)) {
				a[i] = 0
			}
		}
	}
}

// rowKernelOperands are the left/right operand fills of the table test.
var rowKernelOperands = []struct {
	name string
	fill operandFill
}{
	{"dense", func(*stats.RNG, []float64, []float64, int, func(int) int) {}},
	{"half_zero", func(rng *stats.RNG, a, _ []float64, _ int, _ func(int) int) { sparsify(rng, a, 0.5) }},
	{"mostly_zero", func(rng *stats.RNG, a, _ []float64, _ int, _ func(int) int) { sparsify(rng, a, 0.95) }},
	{"zero_row", func(_ *stats.RNG, a, _ []float64, aCols int, _ func(int) int) {
		// One stored row of a (an output row for MatMul/BT, one p for AT).
		if len(a) > 0 {
			clear(a[len(a)/aCols/2*aCols:][:aCols])
		}
	}},
	{"all_zero", func(_ *stats.RNG, a, _ []float64, _ int, _ func(int) int) { clear(a) }},
	{"neg_zero", func(rng *stats.RNG, a, b []float64, _ int, _ func(int) int) {
		negZero := math.Copysign(0, -1)
		for i := range a {
			if rng.Float64() < 0.3 {
				a[i] = negZero
			}
		}
		for i := range b {
			if rng.Float64() < 0.3 {
				b[i] = negZero
			}
		}
	}},
	{"cancel_to_zero", func(_ *stats.RNG, a, b []float64, _ int, _ func(int) int) {
		// Partial sums that hit exactly +0 mid-reduction, then meet −0 terms.
		for i := range a {
			a[i] = float64(1 - 2*(i%2))
		}
		for i := range b {
			b[i] = float64(i%3) - 1
		}
	}},
	{"inf_nan_right", func(rng *stats.RNG, a, b []float64, _ int, _ func(int) int) {
		// Zeros in a against Inf/NaN in b: the skipped 0·Inf must stay
		// skipped, the unskipped ones must poison the sum.
		sparsify(rng, a, 0.5)
		for i := range b {
			switch r := rng.Float64(); {
			case r < 0.05:
				b[i] = math.Inf(1)
			case r < 0.10:
				b[i] = math.Inf(-1)
			case r < 0.15:
				b[i] = math.NaN()
			}
		}
	}},
	{"inf_nan_left", func(rng *stats.RNG, a, _ []float64, _ int, _ func(int) int) {
		sparsify(rng, a, 0.4)
		for i := range a {
			switch r := rng.Float64(); {
			case r < 0.05:
				a[i] = math.Inf(1)
			case r < 0.10:
				a[i] = math.NaN()
			}
		}
	}},
	// A row longer than the staging with z = 1, 2 or 3 zeros among its first
	// stage entries: the compress pass tops the chunk up with the z entries
	// beyond them before the update runs.
	{"topup_1", dropP(func(p int) bool { return p == 3 })},
	{"topup_2", dropP(func(p int) bool { return 2 <= p && p < 4 })},
	{"topup_3", dropP(func(p int) bool { return 1 <= p && p < 4 })},
	{"zeros_across_chunk", dropP(func(p int) bool { return stage-5 <= p && p < stage+5 })},
	{"full_stage_then_zeros", dropP(func(p int) bool { return p >= stage })},
}

// TestRowKernelsMatchReference pins MatMul, MatMulAT and MatMulBT — the
// kernels' only oracle — to refGEMM at every GEMM shape the bench workloads
// run: one SGD step of the paper-sized MLP (forward 16×24×32 and 16×32×10,
// weight gradients 24×16×32 and 32×16×10, input gradient 16×10×32) at every
// tail batch 1..15, net-loopback's 16×64×128 / 64×16×128, train-gemm's
// 64×256×256 / 256×64×256 / 64×10×256 and Evaluate's 256×24×32; at
// gemmShapes; at shared dimensions that are not a multiple of the kernels'
// gather width, and on either side of accumRows' staging capacity; at the
// three zero-width products, which must return without
// touching an element; and on row-range calls, which must produce the same
// rows. The whole table runs twice: as shipped — accumRows' vector row update
// where the host has one — and with that update switched off, so the Go loop
// every other build runs stays under test on an AVX host. The subtests share
// hasAVX and so do not run in parallel; they draw the same operands, so the
// reference is computed once per case.
func TestRowKernelsMatchReference(t *testing.T) {
	wants := map[string][]float64{}
	t.Run("shipped", func(t *testing.T) { checkRowKernels(t, wants) })
	t.Run("portable", func(t *testing.T) {
		if !hasAVX {
			t.Skip("no vector path on this host: the shipped run was the Go loop")
		}
		hasAVX = false
		t.Cleanup(func() { hasAVX = true })
		checkRowKernels(t, wants)
	})
}

func checkRowKernels(t *testing.T, wants map[string][]float64) {
	type shape struct{ m, k, n int }
	shapes := map[string][]shape{
		"MatMul":   {{16, 24, 32}, {16, 32, 10}, {16, 64, 128}, {64, 256, 256}, {256, 24, 32}, {3, 1, 5}, {2, 7, 3}, {5, 13, 1}},
		"MatMulAT": {{24, 16, 32}, {32, 16, 10}, {64, 16, 128}, {256, 64, 256}, {3, 1, 5}, {2, 7, 3}, {5, 13, 1}},
		"MatMulBT": {{16, 10, 32}, {16, 32, 24}, {16, 128, 64}, {64, 10, 256}, {3, 1, 5}, {2, 7, 3}, {5, 13, 1}, {4, 6, 7}},
	}
	for batch := 1; batch < 16; batch++ {
		shapes["MatMul"] = append(shapes["MatMul"], shape{batch, 24, 32}, shape{batch, 32, 10})
		shapes["MatMulAT"] = append(shapes["MatMulAT"], shape{24, batch, 32}, shape{32, batch, 10})
		shapes["MatMulBT"] = append(shapes["MatMulBT"], shape{batch, 10, 32})
	}
	// Problems around the powers of two a cache-blocked kernel would tile at
	// (interiors, exact boundaries, one past, ragged tails), kept from the
	// retired tiled kernels' golden tests: where an implementation that splits
	// the reduction would first go wrong.
	gemmShapes := []shape{
		{1, 4, 4}, {3, 7, 5}, {4, 128, 128}, {5, 129, 130},
		{63, 127, 127}, {64, 128, 128}, {65, 129, 129}, {70, 130, 90},
		{128, 64, 256}, {96, 257, 31}, {33, 300, 17}, {127, 16, 255},
	}
	// Reductions one short of accumRows' staging, exactly it, one past, and
	// two chunks and a ragged third.
	for _, k := range []int{stage - 1, stage, stage + 1, 2*stage + 3} {
		shapes["MatMul"] = append(shapes["MatMul"], shape{3, k, 5})
		shapes["MatMulAT"] = append(shapes["MatMulAT"], shape{3, k, 5})
	}
	for name := range shapes {
		shapes[name] = append(shapes[name], gemmShapes...)
		shapes[name] = append(shapes[name], shape{0, 5, 3}, shape{4, 0, 3}, shape{4, 5, 0})
	}
	kernels := []struct {
		name   string
		aT, bT bool
		run    func(dst, a, b *Tensor)
		rows   func(dst, a, b []float64, lo, hi, m, k, n int)
	}{
		{"MatMul", false, false, MatMul,
			func(dst, a, b []float64, lo, hi, m, k, n int) { accumRows(dst, a, b, lo, hi, k, n, k, 1) }},
		{"MatMulAT", true, false, MatMulAT,
			func(dst, a, b []float64, lo, hi, m, k, n int) { accumRows(dst, a, b, lo, hi, k, n, 1, m) }},
		{"MatMulBT", false, true, MatMulBT,
			func(dst, a, b []float64, lo, hi, m, k, n int) {
				bt := FromSlice(make([]float64, k*n), k, n)
				TransposeInto(bt, FromSlice(b, n, k))
				accumRows(dst, a, bt.Data, lo, hi, k, n, k, 1)
			}},
	}
	for _, kern := range kernels {
		for _, sh := range shapes[kern.name] {
			for _, op := range rowKernelOperands {
				name := fmt.Sprintf("%s/%dx%dx%d/%s", kern.name, sh.m, sh.k, sh.n, op.name)
				rng := stats.NewRNG(uint64(sh.m*10007 + sh.k*101 + sh.n))
				a, b := randomTensor(rng, sh.m, sh.k), randomTensor(rng, sh.k, sh.n)
				if kern.aT {
					a = randomTensor(rng, sh.k, sh.m)
				}
				if kern.bT {
					b = randomTensor(rng, sh.n, sh.k)
				}
				pOf := func(i int) int { return i % sh.k }
				if kern.aT {
					pOf = func(i int) int { return i / sh.m }
				}
				op.fill(rng, a.Data, b.Data, a.Shape[1], pOf)
				want, ok := wants[name]
				if !ok {
					want = refGEMM(a.Data, b.Data, sh.m, sh.k, sh.n, kern.aT, kern.bT)
					wants[name] = want
				}

				got := FromSlice(make([]float64, sh.m*sh.n), sh.m, sh.n)
				got.Fill(math.NaN()) // the kernels must overwrite, not accumulate into, dst
				kern.run(got, a, b)
				if i := sameResult(got.Data, want); i >= 0 {
					t.Fatalf("%s: element %d is %x (%v), reference %x (%v)", name, i,
						math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(want[i]), want[i])
				}

				// The same rows as two row-range calls, upper half first.
				got.Fill(math.NaN())
				split := sh.m / 2
				kern.rows(got.Data, a.Data, b.Data, split, sh.m, sh.m, sh.k, sh.n)
				kern.rows(got.Data, a.Data, b.Data, 0, split, sh.m, sh.k, sh.n)
				if i := sameResult(got.Data, want); i >= 0 {
					t.Fatalf("%s: row-range call: element %d is %x, reference %x", name, i,
						math.Float64bits(got.Data[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// FuzzAccumRows is the table test's differential from raw bytes: the left
// operand's bit patterns are read eight bytes at a time (the input repeats
// when it runs out), so ±0, subnormals, infinities and quiet and signalling
// NaNs land on every side of a four-term pass and of the staging boundary;
// m, k (up to past two chunks) and n (up to past a 32-column block, a
// 16-column one and a masked tail) come from the input too, aT picks the
// (rs, cs) reading, and the result is held to refGEMM with the vector row
// update on (where the host has one) and off.
func FuzzAccumRows(f *testing.F) {
	corners := cornerBytes()
	f.Add(uint8(3), uint8(2*stage+3), uint8(5), false, corners)
	f.Add(uint8(5), uint8(stage+1), uint8(9), true, corners[8:])
	f.Add(uint8(1), uint8(stage), uint8(1), false, corners[:3*8])
	f.Add(uint8(2), uint8(7), uint8(4), true, corners[:8])
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, aT bool, data []byte) {
		if len(data) < 8 {
			return
		}
		m, k, n := int(mb)%7, int(kb)%(2*stage+8), int(nb)%52
		a := make([]float64, m*k)
		for i := range a {
			a[i] = floatAt(data, 8*i)
		}
		b := randomTensor(stats.NewRNG(uint64(len(data))), k, n).Data
		want := refGEMM(a, b, m, k, n, aT, false)
		rs, cs := k, 1
		if aT {
			rs, cs = 1, m
		}
		shipped := hasAVX
		defer func() { hasAVX = shipped }()
		for _, hasAVX = range []bool{shipped, false} {
			got := make([]float64, m*n)
			accumRows(got, a, b, 0, m, k, n, rs, cs)
			if i := sameResult(got, want); i >= 0 {
				t.Fatalf("%dx%dx%d aT=%v hasAVX=%v: element %d is %x (%v), reference %x (%v)", m, k, n, aT, hasAVX, i,
					math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			}
		}
	})
}

// TestMatMulZeroAllocs holds MatMul and MatMulAT, and TransposeInto into a
// kept tensor, to no heap allocation at train-gemm's widest GEMM: they are a
// shape check and a kernel call (or a copy), with no dispatch closure,
// packing buffer or goroutine to pay for. MatMulBT is not held: it allocates
// its transpose by contract, and no training path calls it.
func TestMatMulZeroAllocs(t *testing.T) {
	const m, k, n = 64, 256, 256
	rng := stats.NewRNG(29)
	a, at := randomTensor(rng, m, k), randomTensor(rng, k, m)
	b, bt := randomTensor(rng, k, n), randomTensor(rng, n, k)
	dst := New(m, n)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"MatMul", func() { MatMul(dst, a, b) }},
		{"MatMulAT", func() { MatMulAT(dst, at, b) }},
		{"TransposeInto", func() { TransposeInto(b, bt) }},
	} {
		if allocs := testing.AllocsPerRun(10, c.run); allocs > 0 {
			t.Errorf("%s allocates %.0f times per call at %dx%dx%d, want 0", c.name, allocs, m, k, n)
		}
	}
}

// benchShapes are the sizes BENCHMARKS.md refers to, named for the bench
// workload that runs them. The paper_* cases are the five GEMMs of one SGD
// step of the paper-sized MLP (24→32→10, batch 16) — forward x·W₁ and h·W₂
// (MatMul), dW₁ = xᵀ·dh and dW₂ = hᵀ·dy (MatMulAT), dh = dy·W₂ᵀ (MatMul
// against the layer's kept W₂ᵀ; BenchmarkMatMulBT times the allocating
// MatMulBT, transpose included) —
// with the ~50 % exact zeros a post-ReLU left operand has; gemm_* are the
// widest three of train-gemm's MLP 256→256→10 at batch 64, loopback_* the
// first-layer pair of net-loopback's MLP 64→128→10 at batch 16. Each kernel
// is run at every shape, whichever model's step the shape came from.
//
// A fresh shape is run twice: as name, one left operand multiplied forever,
// and as name_fresh, cycling through freshLefts left operands with the same
// zero fraction and a different zero pattern each. A training step never
// sees the same activations twice, and a fixed operand lets the branch
// predictor learn every zero test of a data-dependent gather by heart
// (BENCHMARKS.md, fourth section), so judge such a gather on name_fresh.
var benchShapes = []struct {
	name    string
	m, k, n int
	zeros   float64 // exact-zero fraction of the left operand
	fresh   bool
}{
	{"paper_16x24x32", 16, 24, 32, 0, true},
	{"paper_16x32x10", 16, 32, 10, 0.5, true},
	{"paper_24x16x32", 24, 16, 32, 0, true},
	{"paper_32x16x10", 32, 16, 10, 0.5, true},
	{"paper_16x10x32", 16, 10, 32, 0, true},
	{"loopback_16x64x128", 16, 64, 128, 0, false},
	{"loopback_64x16x128", 64, 16, 128, 0, false},
	{"medium_48x96x192", 48, 96, 192, 0, false},
	{"gemm_64x256x256", 64, 256, 256, 0, true},
	{"gemm_256x64x256", 256, 64, 256, 0, false},
	{"gemm_64x10x256", 64, 10, 256, 0, false},
}

// freshLefts is how many left operands a *_fresh benchmark cycles through
// (a power of two): 64 × 512 zero tests is beyond any predictor's history.
const freshLefts = 64

// benchKernels runs one kernel over benchShapes; aT/bT say which operand the
// kernel takes transposed.
func benchKernels(b *testing.B, aT, bT bool, run func(dst, a, bb *Tensor)) {
	for _, sh := range benchShapes {
		for _, lefts := range []int{1, freshLefts} {
			name := sh.name
			if lefts > 1 {
				if !sh.fresh {
					continue
				}
				name += "_fresh"
			}
			b.Run(name, func(b *testing.B) {
				rng := stats.NewRNG(7)
				aShape, bShape := []int{sh.m, sh.k}, []int{sh.k, sh.n}
				if aT {
					aShape = []int{sh.k, sh.m}
				}
				if bT {
					bShape = []int{sh.n, sh.k}
				}
				as := make([]*Tensor, lefts)
				as[0] = randomTensor(rng, aShape...)
				bb := randomTensor(rng, bShape...)
				sparsify(rng, as[0].Data, sh.zeros)
				for i := 1; i < lefts; i++ {
					as[i] = randomTensor(rng, aShape...)
					sparsify(rng, as[i].Data, sh.zeros)
				}
				dst := New(sh.m, sh.n)
				b.SetBytes(int64(8 * sh.m * sh.k * sh.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(dst, as[i&(lefts-1)], bb)
				}
			})
		}
	}
}

func BenchmarkMatMul(b *testing.B)   { benchKernels(b, false, false, MatMul) }
func BenchmarkMatMulAT(b *testing.B) { benchKernels(b, true, false, MatMulAT) }
func BenchmarkMatMulBT(b *testing.B) { benchKernels(b, false, true, MatMulBT) }
