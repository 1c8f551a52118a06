package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewAndSize(t *testing.T) {
	x := New(3, 4)
	if x.Size() != 12 || x.Rank() != 2 || x.Shape[0] != 3 || x.Shape[1] != 4 {
		t.Fatalf("unexpected metadata: %+v", x)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dim")
		}
	}()
	New(3, 0)
}

func TestFromSliceAndReshape(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", x.At(1, 2))
	}
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Fatalf("reshaped At(2,1) = %v", y.At(2, 1))
	}
	// Views share data.
	y.Set(0, 0, 99)
	if x.Data[0] != 99 {
		t.Fatal("Reshape must share backing data")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	a.Add(b)
	want := []float64{5, 7, 9}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("Add got %v", a.Data)
		}
	}
	a.Scale(2)
	for i, w := range []float64{10, 14, 18} {
		if a.Data[i] != w {
			t.Fatalf("Scale got %v", a.Data)
		}
	}
	a.AddScaled(0.5, b)
	for i, w := range []float64{12, 16.5, 21} {
		if a.Data[i] != w {
			t.Fatalf("AddScaled got %v", a.Data)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2)
	b := New(3)
	for i, fn := range []func(){
		func() { a.Add(b) }, func() { a.AddScaled(1, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("op %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// naiveMatMul is the textbook triple loop MatMul is compared against within
// a tolerance (refGEMM is the bit-exact reference).
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomTensor(rng *stats.RNG, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	x := FromSlice(make([]float64, n), shape...) // New refuses the zero dimensions the kernel table includes
	x.RandNormal(rng, 1)
	return x
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m, k, n := 1+rng.IntN(20), 1+rng.IntN(20), 1+rng.IntN(20)
		a := randomTensor(rng, m, k)
		b := randomTensor(rng, k, n)
		dst := New(m, n)
		MatMul(dst, a, b)
		return tensorsClose(dst, naiveMatMul(a, b), 1e-10)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatMulATMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k, m, n := 1+rng.IntN(15), 1+rng.IntN(15), 1+rng.IntN(15)
		a := randomTensor(rng, k, m) // will be transposed
		b := randomTensor(rng, k, n)
		dst := New(m, n)
		MatMulAT(dst, a, b)
		// Reference: transpose a manually.
		at := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		return tensorsClose(dst, naiveMatMul(at, b), 1e-10)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatMulBTMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m, k, n := 1+rng.IntN(15), 1+rng.IntN(15), 1+rng.IntN(15)
		a := randomTensor(rng, m, k)
		b := randomTensor(rng, n, k) // will be transposed
		dst := New(m, n)
		MatMulBT(dst, a, b)
		bt := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		return tensorsClose(dst, naiveMatMul(a, bt), 1e-10)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDimensionPanics(t *testing.T) {
	a := New(2, 3)
	b := New(4, 5) // inner mismatch
	dst := New(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMul(dst, a, b)
}

func TestMatMulDeterministicAcrossRuns(t *testing.T) {
	rng1 := stats.NewRNG(77)
	rng2 := stats.NewRNG(77)
	a1 := randomTensor(rng1, 40, 40)
	b1 := randomTensor(rng1, 40, 40)
	a2 := randomTensor(rng2, 40, 40)
	b2 := randomTensor(rng2, 40, 40)
	d1, d2 := New(40, 40), New(40, 40)
	MatMul(d1, a1, b1)
	MatMul(d2, a2, b2)
	for i := range d1.Data {
		if d1.Data[i] != d2.Data[i] {
			t.Fatal("MatMul is not bit-deterministic")
		}
	}
}
