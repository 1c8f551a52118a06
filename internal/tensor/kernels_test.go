package tensor

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// refVec returns a deterministic pseudo-random vector of length n.
func refVec(n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Normal(0, 1)
	}
	return out
}

// TestKernelsMatchNaive checks every fused kernel against the obvious
// one-element-at-a-time loop, bit for bit, across lengths that exercise both
// the unrolled body and the scalar tail.
func TestKernelsMatchNaive(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 8, 63, 64, 65, 1000} {
		a := refVec(n, 1)
		b := refVec(n, 2)
		k := 0.37

		want := make([]float64, n)
		copy(want, b)
		for i := range want {
			want[i] += k * a[i]
		}
		got := make([]float64, n)
		copy(got, b)
		Axpy(k, a, got)
		mustEqualBits(t, "Axpy", n, got, want)

		for i := range want {
			want[i] = k * a[i]
		}
		ScaleInto(k, a, got)
		mustEqualBits(t, "ScaleInto", n, got, want)

		for i := range want {
			want[i] = a[i] - b[i]
		}
		SubInto(a, b, got)
		mustEqualBits(t, "SubInto", n, got, want)

		for i := range want {
			want[i] = a[i] + b[i]
		}
		AddInto(a, b, got)
		mustEqualBits(t, "AddInto", n, got, want)

		copy(got, a)
		copy(want, a)
		for i := range want {
			want[i] *= k
		}
		ScaleSlice(k, got)
		mustEqualBits(t, "ScaleSlice", n, got, want)

		const k2 = 0.63
		for i := range want {
			want[i] = k*a[i] + k2*b[i]
		}
		AxpbyInto(k, a, k2, b, got)
		mustEqualBits(t, "AxpbyInto", n, got, want)

		// Aliased dst: the tree reduction folds in place, dst == x.
		copy(got, a)
		AxpbyInto(k, got, k2, b, got)
		mustEqualBits(t, "AxpbyInto aliased", n, got, want)
	}
}

func mustEqualBits(t *testing.T, op string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d: element %d = %x, want %x", op, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestKernelsLengthMismatchPanics locks in the shape discipline.
func TestKernelsLengthMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { Axpy(1, make([]float64, 3), make([]float64, 4)) },
		func() { ScaleInto(1, make([]float64, 3), make([]float64, 4)) },
		func() { SubInto(make([]float64, 4), make([]float64, 3), make([]float64, 4)) },
		func() { AddInto(make([]float64, 3), make([]float64, 4), make([]float64, 4)) },
		func() { AxpbyInto(1, make([]float64, 3), 1, make([]float64, 4), make([]float64, 4)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestKernelsZeroAlloc asserts the kernels never allocate — they sit inside
// the per-client aggregation loop.
func TestKernelsZeroAlloc(t *testing.T) {
	a := refVec(4096, 3)
	dst := refVec(4096, 4)
	if n := testing.AllocsPerRun(100, func() {
		Axpy(0.5, a, dst)
		ScaleInto(0.5, a, dst)
		AddInto(a, a, dst)
		SubInto(a, a, dst)
		ScaleSlice(0.999, dst)
		AxpbyInto(0.5, a, 0.5, a, dst)
	}); n != 0 {
		t.Fatalf("kernels allocated %.1f times per run, want 0", n)
	}
}

func BenchmarkAxpy(b *testing.B) {
	x := refVec(1<<14, 5)
	dst := refVec(1<<14, 6)
	b.SetBytes(8 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x, dst)
	}
}

func BenchmarkScaleInto(b *testing.B) {
	x := refVec(1<<14, 7)
	dst := make([]float64, 1<<14)
	b.SetBytes(8 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScaleInto(0.5, x, dst)
	}
}

func BenchmarkAddInto(b *testing.B) {
	x := refVec(1<<14, 8)
	y := refVec(1<<14, 9)
	dst := make([]float64, 1<<14)
	b.SetBytes(8 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddInto(x, y, dst)
	}
}
