package tensor

import (
	"testing"

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

// TestResize pins the resize-by-capacity contract: the same tensor back
// when the rank matches and the capacity fits, a new zero tensor otherwise,
// and no allocation on the warm path.
func TestResize(t *testing.T) {
	a := Resize(nil, 4, 3)
	if a.Size() != 12 || a.Shape[0] != 4 || a.Shape[1] != 3 {
		t.Fatalf("Resize(nil, 4, 3) = %v", a.Shape)
	}
	a.Fill(1)
	if b := Resize(a, 2, 5); b != a || b.Size() != 10 || b.Shape[0] != 2 || b.Shape[1] != 5 || b.Data[9] != 1 {
		t.Fatalf("a fitting resize did not reshape in place: %v (same %v)", b.Shape, b == a)
	}
	if b := Resize(a, 4, 3); b != a || b.Size() != 12 {
		t.Fatalf("growing back within capacity reallocated: %v", b.Shape)
	}
	for _, shape := range [][]int{{13, 1}, {12}, {1, 2, 6}} {
		if b := Resize(a, shape...); b == a || !b.SameShape(New(shape...)) || b.Data[0] != 0 {
			t.Fatalf("Resize to %v returned the old buffer, a dirty one or the wrong shape", shape)
		}
	}
	shape := []int{3, 4}
	if b := Resize(nil, shape...); &b.Shape[0] == &shape[0] {
		t.Fatal("Resize kept the caller's shape slice")
	}
	if allocs := testing.AllocsPerRun(20, func() { a = Resize(a, 3, 4) }); allocs != 0 {
		t.Fatalf("warm Resize allocated %.1f times, want 0", allocs)
	}
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

func randomTensor(rng *stats.RNG, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	x := FromSlice(make([]float64, n), shape...) // New refuses the zero dimensions the kernel table includes
	x.RandNormal(rng, 1)
	return x
}
