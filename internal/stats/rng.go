// Package stats provides the statistical primitives that Group-FEL is built
// on: deterministic seeded random number generation, Dirichlet and
// categorical sampling, descriptive statistics (mean, variance, coefficient
// of variation), and distribution distances (KL divergence and friends).
//
// Everything in this package is deterministic given a seed, which is what
// makes the experiment harness reproducible.
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

// RNG is a deterministic pseudo-random number generator used throughout the
// simulator. It wraps math/rand/v2's PCG so that every component (partitioner,
// grouping, sampling, trainer) can own an independent, seedable stream.
type RNG struct {
	src *rand.Rand
	pcg *rand.PCG
}

// NewRNG returns a generator seeded with seed. Two RNGs created with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{src: rand.New(pcg), pcg: pcg}
}

// Reseed resets the generator in place to the stream NewRNG(seed) would
// produce, without allocating. The training hot loop derives one stream per
// (seed, round, group, client) tuple; reseeding a per-worker RNG replaces a
// fresh NewRNG allocation on every client visit.
func (r *RNG) Reseed(seed uint64) {
	r.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
}

// State returns the generator's full internal state as two 64-bit words.
// Together with SetState it makes an RNG checkpointable: math/rand/v2's
// PCG carries exactly 128 bits of state and its Rand wrapper caches
// nothing, so (hi, lo) is sufficient to resume the stream mid-sequence.
func (r *RNG) State() (hi, lo uint64) {
	b, err := r.pcg.MarshalBinary()
	if err != nil || len(b) != 20 || string(b[:4]) != "pcg:" {
		panic(fmt.Sprintf("stats: unexpected PCG marshal format (%d bytes, %v)", len(b), err))
	}
	return binary.BigEndian.Uint64(b[4:12]), binary.BigEndian.Uint64(b[12:20])
}

// SetState restores the generator to a state previously captured with
// State. The next draw after SetState equals the draw the captured
// generator would have produced.
func (r *RNG) SetState(hi, lo uint64) {
	b := make([]byte, 20)
	copy(b, "pcg:")
	binary.BigEndian.PutUint64(b[4:12], hi)
	binary.BigEndian.PutUint64(b[12:20], lo)
	if err := r.pcg.UnmarshalBinary(b); err != nil {
		panic(fmt.Sprintf("stats: PCG unmarshal: %v", err))
	}
}

// Mark is a position in an RNG's stream: the whole 128-bit PCG state, held
// by value. Taking one and rewinding to it copy 16 bytes and allocate
// nothing, unlike State and SetState, which go through PCG's binary
// marshalling.
type Mark struct{ pcg rand.PCG }

// Mark returns the generator's current stream position.
func (r *RNG) Mark() Mark { return Mark{*r.pcg} }

// Rewind moves the generator to m, which any RNG may have taken: the draws
// that follow are the ones that followed m there.
func (r *RNG) Rewind(m Mark) { *r.pcg = m.pcg }

// Split derives a new independent generator from this one, keyed by tag.
// Splitting is deterministic: the same parent seed and tag always yield the
// same child stream, regardless of how much the parent has been consumed
// after the split.
func (r *RNG) Split(tag uint64) *RNG {
	// Derive from a draw so distinct parents with equal tags diverge.
	s := r.src.Uint64()
	pcg := rand.NewPCG(s, tag^0xbf58476d1ce4e5b9)
	return &RNG{src: rand.New(pcg), pcg: pcg}
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit sample.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// NormFloat64 returns a standard normal sample.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Normal returns a sample from N(mu, sigma^2).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + float64(sigma*r.src.NormFloat64())
}

// SkipNormals advances the generator past n NormFloat64 draws without
// computing them, leaving the stream where n NormFloat64 calls would. A word
// NormFloat64's ziggurat accepts on its fast path — over 99 % of them — is
// skipped for a table lookup; any other draw is replayed through NormFloat64.
func (r *RNG) SkipNormals(n int) {
	kn := zigguratBounds()
	for range n {
		m := *r.pcg
		u := r.pcg.Uint64()
		if j := int64(int32(u)); max(j, -j) >= kn[u>>32&0x7F] {
			*r.pcg = m
			r.src.NormFloat64()
		}
	}
}

// zigguratBounds returns, per strip u>>32&0x7F of NormFloat64's ziggurat, the
// bound under which it returns on the word u alone, |int32(u)| < bound, read
// off NormFloat64 itself by bisection over a source counting its words.
var zigguratBounds = sync.OnceValue(func() *[128]int64 {
	var kn [128]int64
	var first uint64
	words := 0
	r := rand.New(sourceFunc(func() uint64 {
		if words++; words == 1 {
			return first
		}
		return 0
	}))
	for i := range kn {
		lo, hi := int64(0), int64(1)<<31
		for lo < hi {
			mid := (lo + hi) / 2
			first, words = uint64(i)<<32|uint64(mid), 0
			if r.NormFloat64(); words == 1 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		kn[i] = lo
	}
	return &kn
})

// sourceFunc is a rand.Source drawing from a function.
type sourceFunc func() uint64

func (f sourceFunc) Uint64() uint64 { return f() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Gamma samples from a Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method. shape must be positive.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("stats: Gamma shape must be positive")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := r.Float64()
		//lint:ignore float-eq resample exact zeros so math.Pow(u, 1/shape) stays finite
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-float64(v)+math.Log(v))) {
			return d * v
		}
	}
}

// Dirichlet samples a probability vector from Dirichlet(alpha, ..., alpha)
// of the given dimension. Smaller alpha yields more skewed vectors, which is
// how the paper controls the non-IID degree of client label distributions.
func (r *RNG) Dirichlet(alpha float64, dim int) []float64 {
	if dim <= 0 {
		panic("stats: Dirichlet dimension must be positive")
	}
	return r.DirichletInto(make([]float64, dim), alpha)
}

// DirichletInto draws what Dirichlet(alpha, len(out)) draws into out and
// returns it, so a caller drawing one vector per client reuses one slice.
func (r *RNG) DirichletInto(out []float64, alpha float64) []float64 {
	if len(out) == 0 {
		panic("stats: Dirichlet dimension must be positive")
	}
	sum := 0.0
	for i := range out {
		g := r.Gamma(alpha)
		out[i] = g
		sum += g
	}
	//lint:ignore float-eq gamma draws underflow to exactly zero; any positive mass normalizes fine
	if sum == 0 {
		// Extremely small alpha can underflow every component; fall back to
		// a one-hot vector, which is the limiting distribution.
		out[r.IntN(len(out))] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Categorical draws an index in [0, len(p)) with probability proportional to
// p[i]. Weights must be non-negative and not all zero.
func (r *RNG) Categorical(p []float64) int {
	return r.CategoricalSum(p, CategoricalTotal(p))
}

// negativeWeight is the panic of a negative or NaN Categorical weight.
const negativeWeight = "stats: Categorical weights must be non-negative"

// CategoricalTotal validates p as Categorical does and returns the total its
// draws scale by, for a caller drawing many times from one p (CategoricalSum).
func CategoricalTotal(p []float64) float64 {
	total := 0.0
	for _, w := range p {
		if w < 0 || math.IsNaN(w) {
			panic(negativeWeight)
		}
		total += w
	}
	if total <= 0 {
		panic("stats: Categorical weights sum to zero")
	}
	return total
}

// CheckWeights panics as Categorical does on a negative or NaN weight in p,
// and accepts an all-zero p: for a caller that draws from p's totals with
// CategoricalSum and handles a zero total itself.
func CheckWeights(p []float64) {
	for _, w := range p {
		if w < 0 || math.IsNaN(w) {
			panic(negativeWeight)
		}
	}
}

// CategoricalSum draws what Categorical(p) draws, given total =
// CategoricalTotal(p).
func (r *RNG) CategoricalSum(p []float64, total float64) int {
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
