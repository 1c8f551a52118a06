package secagg

import (
	"fmt"
	"math"
)

// Quantizer maps float64 update vectors to words of Z₂⁶⁴ and back via
// signed fixed-point encoding: values are clipped to [−Clip, Clip], scaled
// by Scale and truncated to an integer, whose two's complement is the word.
// Sums wrap modulo 2⁶⁴ and decode as signed integers, so a sum of k vectors
// decodes exactly while k·Clip·Scale < 2⁶³. Check enforces the stricter
// P/2 the Shamir field gives, the bound every admitted configuration has
// always met, so a sum decodes to the same integer in either ring.
type Quantizer struct {
	// Scale is the fixed-point multiplier (resolution = 1/Scale).
	Scale float64
	// Clip bounds each coordinate's absolute value before encoding.
	Clip float64
}

// DefaultQuantizer gives ~1e-6 resolution with generous headroom: sums of
// up to ~10⁵ clipped updates decode exactly.
func DefaultQuantizer() Quantizer { return Quantizer{Scale: 1 << 20, Clip: 8} }

// Check panics if a sum over parties vectors could leave the signed range
// below P/2.
func (q Quantizer) Check(parties int) {
	if q.Scale <= 0 || q.Clip <= 0 {
		panic("secagg: Quantizer needs positive Scale and Clip")
	}
	if float64(parties)*q.Clip*q.Scale >= float64(P/2) {
		panic(fmt.Sprintf("secagg: %d parties × Clip %g × Scale %g reaches P/2", parties, q.Clip, q.Scale))
	}
}

// Quantize encodes v into words of Z₂⁶⁴. NaN encodes as 0: converting NaN
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
		out[i] = uint64(int64(x * q.Scale))
	}
	return out
}

// Dequantize decodes a vector of Z₂⁶⁴ words that encodes a sum of at most
// maxParties quantized updates back to floats, reading each word as a
// two's-complement integer.
func (q Quantizer) Dequantize(v []uint64, maxParties int) []float64 {
	q.Check(maxParties)
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int64(x)) / q.Scale
	}
	return out
}
