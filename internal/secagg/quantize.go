package secagg

import (
	"fmt"
	"math"
)

// Quantizer maps float64 update vectors to field elements and back via
// signed fixed-point encoding. Values are clipped to [−Clip, Clip] and
// scaled by Scale; negative values wrap modulo P. Correct dequantization of
// a sum of k vectors requires k·Clip·Scale < P/2, which Check enforces.
type Quantizer struct {
	// Scale is the fixed-point multiplier (resolution = 1/Scale).
	Scale float64
	// Clip bounds each coordinate's absolute value before encoding.
	Clip float64
}

// DefaultQuantizer gives ~1e-6 resolution with generous headroom: sums of
// up to ~10⁵ clipped updates decode exactly.
func DefaultQuantizer() Quantizer { return Quantizer{Scale: 1 << 20, Clip: 8} }

// Check panics if a sum over parties vectors could overflow the field's
// signed range.
func (q Quantizer) Check(parties int) {
	if q.Scale <= 0 || q.Clip <= 0 {
		panic("secagg: Quantizer needs positive Scale and Clip")
	}
	if float64(parties)*q.Clip*q.Scale >= float64(P/2) {
		panic(fmt.Sprintf("secagg: %d parties × Clip %g × Scale %g overflows field", parties, q.Clip, q.Scale))
	}
}

// Quantize encodes v into field elements. NaN encodes as 0: converting NaN
// to an integer is platform-defined in Go, and a diverged client's masked
// words must be the same on every host.
func (q Quantizer) Quantize(v []float64) []uint64 {
	return q.QuantizeInto(make([]uint64, len(v)), v)
}

// QuantizeInto is Quantize writing into dst's storage: the result is dst
// resized to len(v), reallocated only when its capacity is short. Every
// element is overwritten, so whatever dst held does not matter.
func (q Quantizer) QuantizeInto(dst []uint64, v []float64) []uint64 {
	if cap(dst) < len(v) {
		dst = make([]uint64, len(v))
	}
	out := dst[:len(v)]
	for i, x := range v {
		switch {
		case x > q.Clip:
			x = q.Clip
		case x < -q.Clip:
			x = -q.Clip
		case math.IsNaN(x):
			x = 0
		}
		// |scaled| mod P, negated in the field for a negative value — by
		// sign mask, because an update's signs are a coin flip per element.
		scaled := int64(x * q.Scale)
		neg := uint64(scaled >> 63)
		mag := Reduce((uint64(scaled) ^ neg) - neg)
		out[i] = Sub(mag&^neg, mag&neg)
	}
	return out
}

// Dequantize decodes a field-element vector that encodes a sum of at most
// maxParties quantized updates back to floats, interpreting values above
// P/2 as negative.
func (q Quantizer) Dequantize(v []uint64, maxParties int) []float64 {
	q.Check(maxParties)
	out := make([]float64, len(v))
	half := P / 2
	for i, x := range v {
		x = Reduce(x)
		if x > half {
			out[i] = -float64(P-x) / q.Scale
		} else {
			out[i] = float64(x) / q.Scale
		}
	}
	return out
}
