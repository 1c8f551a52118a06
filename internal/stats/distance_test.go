package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	p := Normalize([]float64{1, 3})
	if !approxEq(p[0], 0.25, 1e-12) || !approxEq(p[1], 0.75, 1e-12) {
		t.Errorf("Normalize = %v", p)
	}
	u := Normalize([]float64{0, 0, 0, 0})
	for _, v := range u {
		if !approxEq(v, 0.25, 1e-12) {
			t.Errorf("zero histogram should normalize to uniform, got %v", u)
		}
	}
}

func TestKLDivergenceProperties(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Dirichlet(1, 8)
		q := r.Dirichlet(1, 8)
		// Non-negativity and identity of indiscernibles.
		if KLDivergence(p, q) < 0 {
			return false
		}
		if KLDivergence(p, p) > 1e-9 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKLDivergenceKnownValue(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	want := 0.5*math.Log(2) + 0.5*math.Log(2.0/3.0)
	if got := KLDivergence(p, q); !approxEq(got, want, 1e-12) {
		t.Errorf("KL = %v, want %v", got, want)
	}
}

func TestKLDivergenceZeroSmoothing(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	d := KLDivergence(p, q)
	if math.IsInf(d, 1) || math.IsNaN(d) {
		t.Fatalf("smoothed KL should be finite, got %v", d)
	}
	if d <= 0 {
		t.Fatalf("disjoint supports should have large KL, got %v", d)
	}
}

func TestL2Distance(t *testing.T) {
	p := []float64{1, 2, 3}
	q := []float64{2, 2, 1}
	if got := L2Distance(p, q); !approxEq(got, math.Sqrt(5), 1e-12) {
		t.Errorf("L2 = %v, want sqrt(5)", got)
	}
}

func TestDistanceLengthMismatchPanics(t *testing.T) {
	fns := []func(){
		func() { KLDivergence([]float64{1}, []float64{0.5, 0.5}) },
		func() { L2Distance([]float64{1}, []float64{1, 2}) },
	}
	for i, fn := range fns {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fn %d: expected panic on length mismatch", i)
				}
			}()
			fn()
		}()
	}
}
