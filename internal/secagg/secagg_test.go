package secagg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestFieldArithmetic(t *testing.T) {
	if Add(P-1, 1) != 0 {
		t.Fatal("Add wrap failed")
	}
	if Sub(0, 1) != P-1 {
		t.Fatal("Sub wrap failed")
	}
	if Mul(2, 3) != 6 {
		t.Fatal("small Mul failed")
	}
	if Neg(0) != 0 || Add(Neg(5), 5) != 0 {
		t.Fatal("Neg failed")
	}
}

func TestFieldMulMatchesBigIntStyle(t *testing.T) {
	// a*b mod P checked against iterated addition for structured values and
	// against algebraic identities for random ones.
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a := Reduce(rng.Uint64())
		b := Reduce(rng.Uint64())
		c := Reduce(rng.Uint64())
		// Distributivity: a(b+c) = ab+ac.
		left := Mul(a, Add(b, c))
		right := Add(Mul(a, b), Mul(a, c))
		if left != right {
			return false
		}
		// Commutativity.
		return Mul(a, b) == Mul(b, a)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFieldInverse(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a := Reduce(rng.Uint64())
		if a == 0 {
			a = 1
		}
		return Mul(a, Inv(a)) == 1
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Inv(0)
}

func TestPow(t *testing.T) {
	if Pow(2, 10) != 1024 {
		t.Fatal("Pow(2,10) wrong")
	}
	// Fermat: a^(P-1) = 1.
	if Pow(12345, P-1) != 1 {
		t.Fatal("Fermat identity failed")
	}
}

func TestMaskStreamDeterministicAndSeedSensitive(t *testing.T) {
	a := MaskStream(42, 100)
	b := MaskStream(42, 100)
	c := MaskStream(43, 100)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MaskStream not deterministic")
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds agree on %d/100 elements", same)
	}
}

func TestDeriveSeedSymmetric(t *testing.T) {
	if DeriveSeed(7, 2, 5) != DeriveSeed(7, 5, 2) {
		t.Fatal("pairwise seed must be order independent")
	}
	if DeriveSeed(7, 2, 5) == DeriveSeed(7, 2, 6) {
		t.Fatal("distinct pairs must get distinct seeds")
	}
	if DeriveSeed(7, 2, 5) == DeriveSeed(8, 2, 5) {
		t.Fatal("distinct sessions must get distinct seeds")
	}
}

func TestShamirRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	err := quick.Check(func(seed uint64) bool {
		secret := Reduce(seed)
		shares := Split(secret, 7, 4, rng)
		// Any 4 shares reconstruct.
		if Reconstruct(shares[:4]) != secret {
			return false
		}
		if Reconstruct(shares[3:]) != secret {
			return false
		}
		// A different subset also works.
		subset := []Share{shares[0], shares[2], shares[4], shares[6]}
		return Reconstruct(subset) == secret
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShamirThresholdHides(t *testing.T) {
	// With t-1 shares, reconstruction gives the wrong value almost surely
	// (information-theoretically it gives no information; we just verify it
	// does not accidentally reconstruct).
	rng := stats.NewRNG(2)
	secret := uint64(123456789)
	shares := Split(secret, 5, 3, rng)
	if Reconstruct(shares[:2]) == secret {
		t.Fatal("2 of 3 shares should not reconstruct (w.h.p.)")
	}
}

func TestShamirPanics(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, fn := range []func(){
		func() { Split(1, 3, 0, rng) },
		func() { Split(1, 3, 4, rng) },
		func() { Reconstruct(nil) },
		func() { Reconstruct([]Share{{X: 1, Y: 1}, {X: 1, Y: 2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	q := DefaultQuantizer()
	v := []float64{0, 1.5, -2.25, 7.99, -7.99, 0.000001}
	enc := q.Quantize(v)
	dec := q.DequantizeInto(nil, enc, 1)
	for i := range v {
		if math.Abs(dec[i]-v[i]) > 2/q.Scale {
			t.Fatalf("round trip %v -> %v", v[i], dec[i])
		}
	}
}

func TestQuantizeClips(t *testing.T) {
	q := Quantizer{Scale: 1 << 16, Clip: 1}
	dec := q.DequantizeInto(nil, q.Quantize([]float64{5, -5}), 1)
	if dec[0] != 1 || dec[1] != -1 {
		t.Fatalf("clip failed: %v", dec)
	}
}

func TestQuantizerCheckOverflow(t *testing.T) {
	q := Quantizer{Scale: 1 << 40, Clip: 1 << 20}
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	q.Check(10)
}

func TestSecureAggregationNoDropout(t *testing.T) {
	const n, dim = 6, 40
	q := DefaultQuantizer()
	s := NewSession(n, dim, 4, 99, q)
	rng := stats.NewRNG(5)
	updates := make([][]float64, n)
	want := make([]float64, dim)
	masked := make([][]uint64, n)
	for i := 0; i < n; i++ {
		updates[i] = make([]float64, dim)
		for d := range updates[i] {
			updates[i][d] = rng.Normal(0, 1)
			want[d] += math.Max(-q.Clip, math.Min(q.Clip, updates[i][d]))
		}
		masked[i] = s.MaskedUpdate(i, updates[i])
	}
	got, err := s.Aggregate(masked, nil)
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if math.Abs(got[d]-want[d]) > float64(n)*2/q.Scale {
			t.Fatalf("aggregate[%d] = %v, want %v", d, got[d], want[d])
		}
	}
}

func TestMaskedUpdateIsBlinded(t *testing.T) {
	// A single masked update must look nothing like its plaintext: compare
	// against the quantized plaintext directly.
	const n, dim = 4, 32
	q := DefaultQuantizer()
	s := NewSession(n, dim, 3, 7, q)
	update := make([]float64, dim) // all zeros
	masked := s.MaskedUpdate(0, update)
	zeroEnc := q.Quantize(update)
	same := 0
	for d := range masked {
		if masked[d] == zeroEnc[d] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("masked update equals plaintext on %d/%d coords", same, dim)
	}
}

func TestSecureAggregationWithDropout(t *testing.T) {
	const n, dim = 7, 25
	q := DefaultQuantizer()
	s := NewSession(n, dim, 4, 1234, q)
	rng := stats.NewRNG(8)
	masked := make([][]uint64, n)
	want := make([]float64, dim)
	dropped := []int{2, 5}
	isDropped := map[int]bool{2: true, 5: true}
	for i := 0; i < n; i++ {
		update := make([]float64, dim)
		for d := range update {
			update[d] = rng.Normal(0, 0.5)
		}
		if isDropped[i] {
			// Client computed its update but never submitted.
			continue
		}
		masked[i] = s.MaskedUpdate(i, update)
		for d := range update {
			want[d] += update[d]
		}
	}
	got, err := s.Aggregate(masked, dropped)
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if math.Abs(got[d]-want[d]) > float64(n)*2/q.Scale {
			t.Fatalf("dropout aggregate[%d] = %v, want %v", d, got[d], want[d])
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	q := DefaultQuantizer()
	s := NewSession(4, 8, 3, 1, q)
	masked := make([][]uint64, 4)
	for i := 0; i < 4; i++ {
		masked[i] = s.MaskedUpdate(i, make([]float64, 8))
	}
	// Too many dropouts: survivors below threshold.
	m2 := [][]uint64{masked[0], masked[1], nil, nil}
	if _, err := s.Aggregate(m2, []int{2, 3}); err == nil {
		t.Fatal("expected threshold error")
	}
	// Dropped client submitted.
	if _, err := s.Aggregate(masked, []int{1}); err == nil {
		t.Fatal("expected dropped-but-submitted error")
	}
	// Missing survivor update.
	m3 := [][]uint64{masked[0], nil, masked[2], masked[3]}
	if _, err := s.Aggregate(m3, nil); err == nil {
		t.Fatal("expected missing-update error")
	}
	// Wrong count.
	if _, err := s.Aggregate(masked[:3], nil); err == nil {
		t.Fatal("expected count error")
	}
	// Bad dropped index.
	if _, err := s.Aggregate(masked, []int{9}); err == nil {
		t.Fatal("expected range error")
	}
	// A dropped index listed twice would remove that client's pairwise masks
	// twice and return garbage; it is an error like an out-of-range one.
	m5 := [][]uint64{masked[0], masked[1], nil, masked[3]}
	if _, err := s.Aggregate(m5, []int{2, 2}); err == nil {
		t.Fatal("expected an error for a repeated dropped index")
	}
	if _, err := s.Aggregate(m5, []int{2}); err != nil {
		t.Fatalf("the same drop listed once: %v", err)
	}
	// Vectors from peers: short and long ones are errors, not an index panic
	// or a silent truncation. There is no unreduced word to reject: masked
	// vectors live in Z₂⁶⁴, where every 64-bit word is a ring element.
	for name, bad := range map[string][]uint64{
		"short": masked[1][:5],
		"long":  append(append([]uint64(nil), masked[1]...), 0),
	} {
		m4 := [][]uint64{masked[0], bad, masked[2], masked[3]}
		if _, err := s.Aggregate(m4, nil); err == nil {
			t.Fatalf("expected an error for a %s vector", name)
		}
	}
	if _, err := s.Aggregate(masked, nil); err != nil {
		t.Fatalf("well-formed vectors after the rejected ones: %v", err)
	}
}

func TestOpCountsQuadratic(t *testing.T) {
	// The number of PRG mask expansions across all clients grows
	// quadratically with group size — the empirical grounding for the
	// paper's O_g(|g|) model.
	streams := func(n int) int {
		q := DefaultQuantizer()
		s := NewSession(n, 8, n/2+1, 1, q)
		masked := make([][]uint64, n)
		for i := 0; i < n; i++ {
			masked[i] = s.MaskedUpdate(i, make([]float64, 8))
		}
		if _, err := s.Aggregate(masked, nil); err != nil {
			t.Fatal(err)
		}
		return s.Ops().MaskStreams
	}
	s10, s20, s40 := streams(10), streams(20), streams(40)
	// Mask streams = n(n-1) pairwise + 2n self → ratio ≈ 4 when doubling.
	r1 := float64(s20) / float64(s10)
	r2 := float64(s40) / float64(s20)
	if r1 < 3 || r2 < 3 {
		t.Fatalf("mask stream growth not quadratic: %d %d %d", s10, s20, s40)
	}
}

func TestSessionPanics(t *testing.T) {
	q := DefaultQuantizer()
	for _, fn := range []func(){
		func() { NewSession(1, 8, 1, 1, q) },
		func() { NewSession(4, 8, 0, 1, q) },
		func() { NewSession(4, 8, 5, 1, q) },
		func() { NewSession(4, 8, 2, 1, q).MaskedUpdate(7, make([]float64, 8)) },
		func() { NewSession(4, 8, 2, 1, q).MaskedUpdate(0, make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// BenchmarkSecureAggregation measures a full session (mask + aggregate) at
// realistic group sizes, grounding the quadratic cost model.
func BenchmarkSecureAggregation5(b *testing.B)  { benchSecAgg(b, 5) }
func BenchmarkSecureAggregation10(b *testing.B) { benchSecAgg(b, 10) }
func BenchmarkSecureAggregation20(b *testing.B) { benchSecAgg(b, 20) }

func benchSecAgg(b *testing.B, n int) {
	const dim = 256
	q := DefaultQuantizer()
	update := make([]float64, dim)
	for i := range update {
		update[i] = float64(i%7) * 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSession(n, dim, n/2+1, uint64(i), q)
		masked := make([][]uint64, n)
		for c := 0; c < n; c++ {
			masked[c] = s.MaskedUpdate(c, update)
		}
		if _, err := s.Aggregate(masked, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaskStream measures what bench/'s secagg.mask_ns probe measures:
// one client's MaskedUpdate at the net-loopback workload's shape (median
// group of 6, the 9 610-parameter model), i.e. n mask streams folded into
// the quantised update. MB/s is keystream folded per second.
func BenchmarkMaskStream(b *testing.B) {
	const n, dim = 6, 9610
	s := NewSession(n, dim, Threshold(n), 2024, DefaultQuantizer())
	rng := stats.NewRNG(1)
	update := make([]float64, dim)
	for i := range update {
		update[i] = rng.Normal(0, 0.01)
	}
	b.SetBytes(n * dim * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MaskedUpdate(i%n, update)
	}
}

func BenchmarkShamirSplitReconstruct(b *testing.B) {
	rng := stats.NewRNG(1)
	for i := 0; i < b.N; i++ {
		shares := Split(uint64(i), 10, 6, rng)
		Reconstruct(shares[:6])
	}
}
