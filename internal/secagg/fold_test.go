package secagg

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// refAggregate is the batch Aggregate as it stood before the streaming form
// (Begin, Fold, Unmask) went in: validate, sum the survivors in client
// order, remove the residual masks, dequantize. The streaming form must
// reproduce it to the last bit, whatever order the folds come in.
func refAggregate(s *Session, masked [][]uint64, dropped []int) ([]float64, error) {
	if len(masked) != s.N {
		return nil, fmt.Errorf("secagg: %d masked updates for %d clients", len(masked), s.N)
	}
	isDropped := make([]bool, s.N)
	for _, d := range dropped {
		if d < 0 || d >= s.N {
			return nil, fmt.Errorf("secagg: dropped index %d out of range", d)
		}
		if isDropped[d] {
			return nil, fmt.Errorf("secagg: dropped index %d listed twice", d)
		}
		isDropped[d] = true
	}
	survivors := 0
	for i := 0; i < s.N; i++ {
		if isDropped[i] {
			if masked[i] != nil {
				return nil, fmt.Errorf("secagg: dropped client %d submitted an update", i)
			}
			continue
		}
		if masked[i] == nil {
			return nil, fmt.Errorf("secagg: surviving client %d missing update", i)
		}
		if len(masked[i]) != s.Dim {
			return nil, fmt.Errorf("secagg: client %d submitted %d words, want %d", i, len(masked[i]), s.Dim)
		}
		survivors++
	}
	if survivors < s.Threshold {
		return nil, fmt.Errorf("secagg: %d survivors below threshold %d", survivors, s.Threshold)
	}

	sum := make([]uint64, s.Dim)
	for i := 0; i < s.N; i++ {
		if isDropped[i] {
			continue
		}
		for d, w := range masked[i] {
			sum[d] += w
		}
		s.ops.FieldOps += s.Dim
	}
	for i := 0; i < s.N; i++ {
		if isDropped[i] {
			continue
		}
		if Reconstruct(s.collectShares(s.selfShares[i], isDropped)) != Reduce(s.selfSeeds[i]) {
			return nil, fmt.Errorf("secagg: personal mask reconstruction failed for client %d", i)
		}
		s.fold(sum, s.selfSeeds[i], true)
	}
	for _, dc := range dropped {
		if Reconstruct(s.collectShares(s.keyShares[dc], isDropped)) != Reduce(uint64(dc)+1) {
			return nil, fmt.Errorf("secagg: key reconstruction failed for dropped client %d", dc)
		}
		for j := 0; j < s.N; j++ {
			if j == dc || isDropped[j] {
				continue
			}
			s.fold(sum, DeriveSeed(s.sessionSeed, dc, j), dc > j)
		}
	}
	return s.Quant.DequantizeInto(nil, sum, survivors), nil
}

// foldRound is one group round's inputs: every client's masked vector (nil
// for the dropped ones) and the reference result.
type foldRound struct {
	n, dim, threshold int
	seed              uint64
	masked            [][]uint64
	dropped           []int
	want              []float64
}

func newFoldRound(t *testing.T, n, dim int, seed uint64, dropped []int) *foldRound {
	t.Helper()
	r := &foldRound{n: n, dim: dim, threshold: Threshold(n), seed: seed, dropped: dropped}
	s := r.session()
	rng := stats.NewRNG(seed ^ 0xf01d)
	r.masked = make([][]uint64, n)
	for i := range r.masked {
		update := make([]float64, dim)
		for d := range update {
			update[d] = rng.Normal(0, 3)
			if d%13 == 5 {
				update[d] = math.NaN()
			}
		}
		r.masked[i] = s.MaskedUpdate(i, update)
	}
	for _, d := range dropped {
		r.masked[d] = nil
	}
	var err error
	if r.want, err = refAggregate(r.session(), r.masked, dropped); err != nil {
		t.Fatalf("reference: %v", err)
	}
	return r
}

func (r *foldRound) session() *Session {
	return NewSession(r.n, r.dim, r.threshold, r.seed, DefaultQuantizer())
}

// check unmasks s and holds the result to the reference, bit for bit.
func (r *foldRound) check(t *testing.T, s *Session, how string) {
	t.Helper()
	got, err := s.Unmask(nil, r.dropped)
	if err != nil {
		t.Fatalf("%s: Unmask: %v", how, err)
	}
	for d := range r.want {
		if math.Float64bits(got[d]) != math.Float64bits(r.want[d]) {
			t.Fatalf("%s: result[%d] = %x, batch reference %x", how, d, math.Float64bits(got[d]), math.Float64bits(r.want[d]))
		}
	}
}

// permutations calls fn with every ordering of xs.
func permutations(xs []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(xs) {
			fn(xs)
			return
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			rec(k + 1)
			xs[k], xs[i] = xs[i], xs[k]
		}
	}
	rec(0)
}

// TestFoldOrderFree: addition in Z₂⁶⁴ is associative and commutative, so
// folding the survivors in any order — every permutation, and from one
// goroutine per survivor at once — unmasks to exactly the batch reference,
// with no dropout, one, and as many as the threshold allows (one up to five
// clients, two at six).
func TestFoldOrderFree(t *testing.T) {
	dim := 2*maskChunk + 3
	for n := 2; n <= 6; n++ {
		for _, k := range slices.Compact([]int{0, 1, n - Threshold(n)}) {
			if k > n-Threshold(n) {
				continue
			}
			dropped := make([]int, 0, k)
			for d := 0; d < k; d++ {
				dropped = append(dropped, (2*d+1)%n)
			}
			t.Run(fmt.Sprintf("n%d/drop%d", n, k), func(t *testing.T) {
				r := newFoldRound(t, n, dim, uint64(100*n+k), dropped)
				var survivors []int
				for i, w := range r.masked {
					if w != nil {
						survivors = append(survivors, i)
					}
				}
				sum := make([]uint64, dim) // one kept sum across every session
				permutations(survivors, func(order []int) {
					s := r.session()
					s.Begin(sum)
					for _, i := range order {
						if err := s.Fold(i, r.masked[i]); err != nil {
							t.Fatalf("order %v: Fold(%d): %v", order, i, err)
						}
					}
					r.check(t, s, fmt.Sprintf("order %v", order))
				})

				s := r.session()
				var start, done sync.WaitGroup
				start.Add(1)
				errs := make([]error, len(survivors))
				for j, i := range survivors {
					done.Add(1)
					go func() {
						defer done.Done()
						start.Wait()
						errs[j] = s.Fold(i, r.masked[i])
					}()
				}
				start.Done()
				done.Wait()
				for j, err := range errs {
					if err != nil {
						t.Fatalf("concurrent Fold(%d): %v", survivors[j], err)
					}
				}
				r.check(t, s, "concurrent folds")
			})
		}
	}
}

// TestFoldRejects: a repeated index, an index out of range, a vector of the
// wrong length and a fold after Unmask are errors that leave the running sum
// as it was, and so are the rules Unmask checks.
func TestFoldRejects(t *testing.T) {
	r := newFoldRound(t, 4, maskChunk+1, 9, nil)
	s := r.session()
	if err := s.Fold(0, r.masked[0]); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		i    int
		w    []uint64
		want string
	}{
		{"repeated", 0, r.masked[0], "client 0 submitted a second update"},
		{"negative", -1, r.masked[1], "client -1 out of range"},
		{"past-end", 4, r.masked[1], "client 4 out of range"},
		{"short", 1, r.masked[1][:r.dim-1], "client 1 submitted 64 words, want 65"},
		{"long", 1, append(append([]uint64(nil), r.masked[1]...), 7), "client 1 submitted 66 words, want 65"},
	}
	for _, b := range bad {
		if err := s.Fold(b.i, b.w); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: Fold returned %v, want an error containing %q", b.name, err, b.want)
		}
	}
	if _, err := s.Unmask(nil, nil); err == nil || !strings.Contains(err.Error(), "surviving client 1 missing update") {
		t.Errorf("Unmask before every survivor folded: %v", err)
	}
	for i := 1; i < 4; i++ {
		if err := s.Fold(i, r.masked[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Unmask(nil, []int{2}); err == nil || !strings.Contains(err.Error(), "dropped client 2 submitted an update") {
		t.Errorf("Unmask dropping a folded client: %v", err)
	}
	r.check(t, s, "after the rejected calls")
	if err := s.Fold(1, r.masked[1]); err == nil || !strings.Contains(err.Error(), "fold after unmask") {
		t.Errorf("Fold after Unmask returned %v", err)
	}
	if _, err := s.Unmask(nil, nil); err == nil || !strings.Contains(err.Error(), "already unmasked") {
		t.Errorf("a second Unmask returned %v", err)
	}
	// Begin starts over: the same session aggregates again, to the same bits.
	s.Begin(nil)
	for i := range 4 {
		if err := s.Fold(i, r.masked[i]); err != nil {
			t.Fatal(err)
		}
	}
	r.check(t, s, "after Begin")
}
