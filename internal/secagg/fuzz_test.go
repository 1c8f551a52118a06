package secagg

import (
	"fmt"
	"math"
	"testing"
)

// FuzzQuantizeRoundTrip checks the fixed-point codec on arbitrary values:
// encode→decode stays within one quantization step of the clipped input,
// and NaN — whose integer conversion Go leaves to the platform — encodes as
// the defined 0.
func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add(0.0, 1.5)
	f.Add(-7.99, 7.99)
	f.Add(1e300, -1e300)
	f.Add(math.Inf(1), math.Inf(-1))
	f.Add(math.NaN(), -0.5)
	f.Fuzz(func(t *testing.T, a, b float64) {
		q := DefaultQuantizer()
		in := []float64{a, b}
		enc := q.Quantize(in)
		dec := q.DequantizeInto(nil, enc, 1)
		for i, v := range in {
			if math.IsNaN(v) {
				if enc[i] != 0 {
					t.Fatalf("Quantize(NaN) = %#x, defined as 0", enc[i])
				}
				continue
			}
			clipped := math.Max(-q.Clip, math.Min(q.Clip, v))
			if math.Abs(dec[i]-clipped) > 2/q.Scale {
				t.Fatalf("round trip %v -> %v (clipped %v)", v, dec[i], clipped)
			}
		}
	})
}

// FuzzFieldOps checks algebraic identities of the Mersenne-field arithmetic
// on arbitrary inputs.
func FuzzFieldOps(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(P-1, P-1)
	f.Add(^uint64(0), uint64(12345))
	f.Fuzz(func(t *testing.T, x, y uint64) {
		a, b := Reduce(x), Reduce(y)
		if Add(a, b) != Add(b, a) {
			t.Fatal("Add not commutative")
		}
		if Mul(a, b) != Mul(b, a) {
			t.Fatal("Mul not commutative")
		}
		if Sub(Add(a, b), b) != a {
			t.Fatal("Sub does not invert Add")
		}
		if a != 0 && Mul(a, Inv(a)) != 1 {
			t.Fatal("Inv broken")
		}
	})
}

// FuzzMaskCancel is the property everything above secagg rests on: for any
// session seed, dimension, group size and admissible drop set, the masks
// cancel exactly and Aggregate returns the dequantised plain sum of the
// survivors' quantised updates.
func FuzzMaskCancel(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), uint16(0))
	f.Add(uint64(1), uint16(1), uint8(2), uint16(0))
	f.Add(uint64(2024), uint16(maskChunk), uint8(6), uint16(0b100))
	f.Add(^uint64(0), uint16(3*maskChunk+5), uint8(12), uint16(0b1010_0101_0101))
	f.Fuzz(func(t *testing.T, seed uint64, dimRaw uint16, nRaw uint8, dropBits uint16) {
		n := 2 + int(nRaw)%11
		dim := int(dimRaw) % (4 * maskChunk)
		threshold := Threshold(n)
		var dropped []int
		for i := 0; i < n && len(dropped) < n-threshold; i++ {
			if dropBits>>i&1 == 1 {
				dropped = append(dropped, i)
			}
		}
		checkRound(t, n, dim, threshold, seed, dropped)
	})
}

// FuzzMaskedUpdateIntoReuse holds the reusing forms to the allocating ones:
// QuantizeInto and MaskedUpdateInto into a dirty buffer longer than the
// update — and then again into their own previous output — must return
// exactly the words of Quantize and MaskedUpdate, in dst's storage, with
// NaN, ±Inf and values either side of the clip among the inputs.
func FuzzMaskedUpdateIntoReuse(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint8(0), 0.5, -0.25, uint64(0), uint8(0))
	f.Add(uint64(2024), uint16(maskChunk+3), uint8(4), 7.999, -8.001, ^uint64(0), uint8(9))
	f.Add(^uint64(0), uint16(3*maskChunk), uint8(9), math.NaN(), math.Inf(-1), P, uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, dimRaw uint16, nRaw uint8, a, b float64, dirt uint64, extra uint8) {
		n := 2 + int(nRaw)%6
		dim := int(dimRaw) % (3*maskChunk + 5)
		q := DefaultQuantizer()
		edges := []float64{a, b, math.NaN(), math.Inf(1), math.Inf(-1), q.Clip, -q.Clip,
			math.Nextafter(q.Clip, 0), math.Nextafter(-q.Clip, -math.MaxFloat64), -a * b}
		update := make([]float64, dim)
		for j := range update {
			update[j] = edges[j%len(edges)]
		}
		dst := make([]uint64, dim+int(extra))
		for j := range dst {
			dst[j] = dirt ^ uint64(j)
		}
		same := func(what string, got, want []uint64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d words, want %d", what, len(got), len(want))
			}
			if dim > 0 && &got[0] != &dst[0] {
				t.Fatalf("%s: wrote into fresh storage, not the %d-word buffer it was given", what, cap(dst))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: word %d = %#x, want %#x (input %v)", what, j, got[j], want[j], update[j])
				}
			}
		}
		want := q.Quantize(update)
		got := q.QuantizeInto(dst, update)
		same("QuantizeInto (dirty buffer)", got, want)
		same("QuantizeInto (reused)", q.QuantizeInto(got, update), want)

		s := NewSession(n, dim, Threshold(n), seed, q)
		for i := 0; i < n; i++ {
			want := s.MaskedUpdate(i, update)
			got := s.MaskedUpdateInto(dst[:cap(dst)], i, update)
			same(fmt.Sprintf("MaskedUpdateInto client %d", i), got, want)
		}
	})
}
