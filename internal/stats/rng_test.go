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

// TestSetupOnceDrawsMatch holds the set-up-once label draw — DirichletInto
// into one reused slice, CategoricalTotal once per vector, CategoricalSum per
// draw — to the per-draw form it replaces (refDirichlet, a fresh slice per
// vector, and refCategorical, which validates and sums p on every draw),
// draw for draw over seeded streams: the same vectors and indices bit for
// bit, and the two streams at the same position afterwards. The alphas reach
// down to where every gamma draw underflows and the one-hot fallback runs.
func TestSetupOnceDrawsMatch(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		alpha := []float64{1e-3, 0.05, 0.5, 2, 30}[seed%5]
		dim := 1 + int(seed%13)
		a, b := NewRNG(seed), NewRNG(seed)
		scratch := make([]float64, dim)
		for v := 0; v < 25; v++ {
			p := a.DirichletInto(scratch, alpha)
			want := refDirichlet(b, alpha, dim)
			for i := range want {
				if math.Float64bits(p[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d vector %d: component %d is %v, want %v", seed, v, i, p[i], want[i])
				}
			}
			total := CategoricalTotal(p)
			for d := 0; d < 40; d++ {
				got, w := a.CategoricalSum(p, total), refCategorical(b, want)
				if got != w {
					t.Fatalf("seed %d vector %d draw %d: %d, want %d", seed, v, d, got, w)
				}
				if c := b.Categorical(want); c != refCategorical(a, p) {
					t.Fatalf("seed %d vector %d draw %d: Categorical %d differs from the reference", seed, v, d, c)
				}
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("seed %d: the streams ended at different positions", seed)
		}
	}
}

// refDirichlet and refCategorical are Dirichlet and Categorical as they drew
// before the set-up-once split, kept as the oracle of TestSetupOnceDrawsMatch.
func refDirichlet(r *RNG, alpha float64, dim int) []float64 {
	out := make([]float64, dim)
	sum := 0.0
	for i := range out {
		g := r.Gamma(alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		out[r.IntN(dim)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func refCategorical(r *RNG, p []float64) int {
	total := 0.0
	for _, w := range p {
		if w < 0 || math.IsNaN(w) {
			panic("stats: Categorical weights must be non-negative")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: Categorical weights sum to zero")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range p {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(p) - 1
}

// TestSkipNormalsMatchesNormFloat64: skipping n normals leaves the stream
// exactly where n NormFloat64 calls leave it, over runs long enough that the
// ziggurat's slow paths — the base strip's tail included — are replayed
// thousands of times, and at every run length from 0 to 300.
func TestSkipNormalsMatchesNormFloat64(t *testing.T) {
	kn := zigguratBounds()
	slow, tail := 0, 0
	for seed := uint64(0); seed < 301; seed++ {
		a, b := NewRNG(seed), NewRNG(seed)
		for range 20 {
			probe := *a.pcg
			for range int(seed) {
				u := probe.Uint64()
				if j := int64(int32(u)); max(j, -j) >= kn[u>>32&0x7F] {
					slow++
					if u>>32&0x7F == 0 {
						tail++
					}
				}
			}
			a.SkipNormals(int(seed))
			for range int(seed) {
				b.NormFloat64()
			}
			if a.Mark() != b.Mark() {
				t.Fatalf("seed %d: SkipNormals(%d) left the stream elsewhere than %d NormFloat64 calls", seed, seed, seed)
			}
		}
	}
	if slow < 1000 || tail == 0 {
		t.Fatalf("only %d slow-path words (%d in the base strip): the replay went untested", slow, tail)
	}
	t.Logf("%d slow-path words replayed, %d in the base strip", slow, tail)
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

// mixedDraws appends n rounds of IntN, Normal, Float64 and Uint64 draws from
// r to dst, each as its bit pattern, and returns the extended slice.
func mixedDraws(r *RNG, n int, dst []uint64) []uint64 {
	for i := 0; i < n; i++ {
		dst = append(dst,
			uint64(r.IntN(7+i)),
			math.Float64bits(r.Normal(0.5, 1.9)),
			math.Float64bits(r.Float64()),
			r.Uint64())
	}
	return dst
}

func TestMarkRewindReplaysSuffix(t *testing.T) {
	r := NewRNG(4949)
	mixedDraws(r, 23, nil) // a prefix, so the mark is mid-stream
	m := r.Mark()
	want := mixedDraws(r, 40, nil)

	r.Rewind(m)
	if got := mixedDraws(r, 40, nil); !slices.Equal(got, want) {
		t.Fatal("rewinding the same RNG did not replay the suffix")
	}
	other := NewRNG(7)
	mixedDraws(other, 5, nil)
	other.Rewind(m)
	if got := mixedDraws(other, 40, nil); !slices.Equal(got, want) {
		t.Fatal("rewinding another RNG to the mark did not replay the suffix")
	}
	if n := testing.AllocsPerRun(100, func() {
		m = r.Mark()
		r.Uint64()
		r.Rewind(m)
	}); n != 0 {
		t.Fatalf("Mark and Rewind allocated %.1f times per run, want 0", n)
	}
}
