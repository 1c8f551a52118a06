package tensor

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

// quadCorners are the operand values where a vector lane could part ways with
// the scalar instruction: signed zeros, infinities, NaN, both ends of the
// subnormal range and the overflow edge, beside ordinary values.
var quadCorners = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64, 1, -1.5, 1e-300, 3e200,
}

// cornerBytes is quadCorners plus a signalling NaN as little-endian bit
// patterns: the seed the raw-byte fuzz targets start from.
func cornerBytes() []byte {
	var out []byte
	for _, c := range quadCorners {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c))
	}
	return binary.LittleEndian.AppendUint64(out, 0x7ff0000000000001)
}

// floatAt reads the eight bytes of data starting at pos as a float64 bit
// pattern; the input repeats when it runs out.
func floatAt(data []byte, pos int) float64 {
	var w [8]byte
	for i := range w {
		w[i] = data[(pos+i)%len(data)]
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

// quadGuard is how many sentinel elements sit on each side of the output row:
// an assembly routine that runs past either end fails no bounds check.
const quadGuard = 8

// checkQuadUpdate calls quadUpdate on n columns that start off elements into
// their backing arrays (every row at its own 32-byte phase), operands taken
// from next in a fixed order, and holds the result to accumRows' Go row
// update written out as one expression: same bits, NaN for NaN (sameResult
// says why the payload is not promised), and not one element written outside
// the row.
func checkQuadUpdate(t testing.TB, n, off int, next func() float64) {
	sentinel := math.Float64frombits(0xdeadbeefcafef00d)
	back := make([]float64, quadGuard+off+n+quadGuard)
	for i := range back {
		back[i] = sentinel
	}
	at := quadGuard + off
	d := back[at : at+n]
	var a [4]float64
	var b [4][]float64
	for q := range b {
		a[q] = next()
		b[q] = make([]float64, n+4)[(off+q+1)%4:] // never empty, so &b[q][0] is valid at n = 0
		for j := 0; j < n; j++ {
			b[q][j] = next()
		}
	}
	want := make([]float64, n)
	for j := range want {
		d[j] = next()
		want[j] = (((d[j] + float64(a[0]*b[0][j])) + float64(a[1]*b[1][j])) + float64(a[2]*b[2][j])) + float64(a[3]*b[3][j])
	}

	quadUpdate(&back[at], &b[0][0], &b[1][0], &b[2][0], &b[3][0], n, a[0], a[1], a[2], a[3])

	if i := sameResult(d, want); i >= 0 {
		t.Fatalf("n=%d off=%d: column %d is %x (%v), the Go update gives %x (%v); a=%v b=[%v %v %v %v]", n, off, i,
			math.Float64bits(d[i]), d[i], math.Float64bits(want[i]), want[i], a, b[0][i], b[1][i], b[2][i], b[3][i])
	}
	for i, v := range back {
		if (i < at || i >= at+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
			t.Fatalf("n=%d off=%d: guard element %d (row is [%d, %d)) was overwritten with %x", n, off, i, at, at+n, math.Float64bits(v))
		}
	}
}

// TestQuadUpdateMatchesGo drives the assembly routine directly over every row
// length that mixes its three steps (four columns, a pair, a single) from
// every 8-byte phase of a 32-byte vector, with the corner values in every
// operand position.
func TestQuadUpdateMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("hasAVX is false: no assembly row update on this host")
	}
	rng := stats.NewRNG(23)
	next := func() float64 {
		if rng.Float64() < 0.4 {
			return quadCorners[rng.IntN(len(quadCorners))]
		}
		return rng.Normal(0, 1)
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			checkQuadUpdate(t, n, off, next)
		}
	}
}

// FuzzQuadUpdate is the same differential from raw bytes: a row length, a
// start phase, and operand bit patterns read eight bytes at a time (the input
// repeats when it runs out), so signalling NaNs and arbitrary payloads get in.
func FuzzQuadUpdate(f *testing.F) {
	if !hasAVX {
		f.Skip("hasAVX is false: no assembly row update on this host")
	}
	corners := cornerBytes()
	f.Add(uint8(67), uint8(3), corners)
	f.Add(uint8(10), uint8(1), corners[8:])
	f.Add(uint8(3), uint8(2), corners[:5*8])
	f.Add(uint8(0), uint8(0), corners[:8])
	f.Fuzz(func(t *testing.T, n, off uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		pos := 0
		next := func() float64 {
			pos += 8
			return floatAt(data, pos-8)
		}
		checkQuadUpdate(t, int(n)%68, int(off)%4, next)
	})
}

// TestMatMulRejectsNon2D: a mis-ranked operand is refused by name, with the
// shapes, before any Shape[1] is read.
func TestMatMulRejectsNon2D(t *testing.T) {
	vec, mat := New(4), New(4, 4)
	for name, run := range map[string]func(dst, a, b *Tensor){"MatMul": MatMul, "MatMulAT": MatMulAT, "MatMulBT": MatMulBT} {
		for i, args := range [][3]*Tensor{{mat, vec, mat}, {mat, mat, vec}, {vec, mat, mat}} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "tensor: "+name+" wants 2-D operands") || !strings.Contains(msg, "[4]") {
						t.Errorf("%s case %d: panic %q, want a tensor: message naming the function and the shapes", name, i, msg)
					}
				}()
				run(args[0], args[1], args[2])
			}()
		}
	}
}
