package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestNewRNGDifferentSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs agree on %d/64 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := NewRNG(7).Split(3)
	b := NewRNG(7).Split(3)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling split streams agree on %d/64 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestGammaMean(t *testing.T) {
	r := NewRNG(5)
	for _, shape := range []float64{0.3, 1.0, 2.5, 10.0} {
		const n = 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		mean := sum / n
		// Gamma(shape, 1) has mean = shape.
		if math.Abs(mean-shape) > 0.1*shape+0.05 {
			t.Errorf("Gamma(%v) sample mean %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestGammaPanicsOnNonPositiveShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape <= 0")
		}
	}()
	NewRNG(1).Gamma(0)
}

func TestDirichletSumsToOne(t *testing.T) {
	r := NewRNG(13)
	err := quick.Check(func(seed uint64) bool {
		rr := NewRNG(seed)
		for _, alpha := range []float64{0.01, 0.1, 1, 10} {
			p := rr.Dirichlet(alpha, 10)
			sum := 0.0
			for _, v := range p {
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50, Rand: nil})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestDirichletSkewIncreasesWithSmallAlpha(t *testing.T) {
	r := NewRNG(17)
	maxOf := func(alpha float64) float64 {
		// Average max component over many draws; skewed draws have a
		// dominant component close to 1.
		total := 0.0
		const n = 500
		for i := 0; i < n; i++ {
			p := r.Dirichlet(alpha, 10)
			total += slices.Max(p)
		}
		return total / n
	}
	skewed := maxOf(0.05)
	flat := maxOf(10)
	if skewed <= flat {
		t.Fatalf("Dirichlet skew ordering violated: alpha=0.05 max %v <= alpha=10 max %v", skewed, flat)
	}
	if skewed < 0.7 {
		t.Errorf("alpha=0.05 should be nearly one-hot, avg max = %v", skewed)
	}
}

func TestCategoricalRespectsWeights(t *testing.T) {
	r := NewRNG(19)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("category ratio %v, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	r := NewRNG(1)
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for weights %v", w)
				}
			}()
			r.Categorical(w)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestReseedMatchesFreshRNG(t *testing.T) {
	r := NewRNG(99)
	// Consume some state, then reseed; the stream must match a fresh RNG's.
	for i := 0; i < 50; i++ {
		r.Float64()
		r.NormFloat64()
	}
	r.Reseed(1234)
	fresh := NewRNG(1234)
	for i := 0; i < 100; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %d, fresh %d", i, a, b)
		}
	}
	if a, b := r.NormFloat64(), fresh.NormFloat64(); a != b {
		t.Fatalf("normal draw diverged: %v vs %v", a, b)
	}
}

func TestReseedDoesNotAllocate(t *testing.T) {
	r := NewRNG(7)
	if n := testing.AllocsPerRun(100, func() { r.Reseed(42) }); n != 0 {
		t.Fatalf("Reseed allocated %.1f times per run, want 0", n)
	}
}

func TestStateRoundTripResumesStream(t *testing.T) {
	r := NewRNG(424242)
	// Burn an arbitrary prefix so the state is mid-stream, not the seed.
	for i := 0; i < 137; i++ {
		r.Uint64()
	}
	hi, lo := r.State()
	want := make([]uint64, 32)
	for i := range want {
		want[i] = r.Uint64()
	}
	// Restore into a generator with a completely different history.
	other := NewRNG(7)
	other.Float64()
	other.SetState(hi, lo)
	for i, w := range want {
		if g := other.Uint64(); g != w {
			t.Fatalf("draw %d after SetState: got %d, want %d", i, g, w)
		}
	}
}

func TestStateIsIdempotentRead(t *testing.T) {
	r := NewRNG(5)
	h1, l1 := r.State()
	h2, l2 := r.State()
	if h1 != h2 || l1 != l2 {
		t.Fatal("State() mutated the generator")
	}
	if a, b := NewRNG(5).Uint64(), r.Uint64(); a != b {
		t.Fatal("reading State() disturbed the stream")
	}
}
