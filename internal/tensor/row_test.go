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

// rowGuard is how many sentinel elements sit on each side of the output row:
// an assembly routine that runs past either end fails no bounds check.
const rowGuard = 8

// checkRowUpdate calls rowUpdate on n columns that start off elements into
// their backing array (every 8-byte phase of a 32-byte vector), over k terms
// read from a left row at element stride cs, against k right rows at their
// own phase. Operands come from next in a fixed order. The output row starts
// as NaN (the routine writes it, never reads it), the left row's unread
// elements between strides are NaN, and so are rowGuard elements past the
// right operand's last row, where a masked-off tail lane that read memory
// would pick them up. The result is held to a Go loop that applies every
// term from +0 in ascending p: same bits, NaN for NaN (sameResult says why
// the payload is not promised); the flag to "some written element is not
// finite"; and not one element may be written outside the row.
func checkRowUpdate(t testing.TB, n, off, k, cs int, next func() float64) {
	sentinel, nan := math.Float64frombits(0xdeadbeefcafef00d), math.NaN()
	back := make([]float64, rowGuard+off+n+rowGuard)
	for i := range back {
		back[i] = sentinel
	}
	at := rowGuard + off
	d := back[at : at+n]
	a := make([]float64, max(1, (k-1)*cs+1)) // never empty, so &a[0] is valid at k = 0
	for i := range a {
		a[i] = nan
	}
	for p := 0; p < k; p++ {
		a[p*cs] = next()
	}
	bBack := make([]float64, 4+k*n+rowGuard)
	b := bBack[(off+1)%4:] // never empty, so &b[0] is valid at n = 0 or k = 0
	for i := range b {
		b[i] = nan
	}
	for i := range b[:k*n] {
		b[i] = next()
	}
	want := make([]float64, n)
	wantFlag := false
	for j := range want {
		d[j] = nan
		w := 0.0
		for p := 0; p < k; p++ {
			w += float64(a[p*cs] * b[p*n+j])
		}
		want[j] = w
		wantFlag = wantFlag || math.IsNaN(w) || math.IsInf(w, 0)
	}

	flag := rowUpdate(&back[at], n, &b[0], &a[0], cs, k)

	if i := sameResult(d, want); i >= 0 {
		t.Fatalf("n=%d off=%d k=%d cs=%d: column %d is %x (%v), the Go loop gives %x (%v); a=%v", n, off, k, cs, i,
			math.Float64bits(d[i]), d[i], math.Float64bits(want[i]), want[i], a)
	}
	if flag != wantFlag {
		t.Fatalf("n=%d off=%d k=%d cs=%d: flag %v, want %v for the row %v", n, off, k, cs, flag, wantFlag, d)
	}
	for i, v := range back {
		if (i < at || i >= at+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
			t.Fatalf("n=%d off=%d k=%d cs=%d: guard element %d (row is [%d, %d)) was overwritten with %x", n, off, k, cs, i, at, at+n, math.Float64bits(v))
		}
	}
}

// TestRowUpdateMatchesGo drives the assembly routine directly over every row
// width that mixes its three parts (blocks of 32 and 16 columns, a masked
// tail of 1–15) from every 8-byte phase of a 32-byte vector, at strides 1
// and rowStride, each at eight term counts nine apart, so every count 0–70
// meets every tail length. Three operand mixes take turns: finite values
// with zeros, whose flag stays down; ones with a few corner values, so that
// some rows are flagged and some not; and corner values in 40 % of the
// operand positions.
func TestRowUpdateMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("hasAVX is false: no assembly row update on this host")
	}
	const rowStride = 7 // a left operand read transposed, m = 7
	rng := stats.NewRNG(23)
	corners := 0.0
	next := func() float64 {
		switch r := rng.Float64(); {
		case r < corners:
			return quadCorners[rng.IntN(len(quadCorners))]
		case r < 0.6:
			return rng.Normal(0, 1)
		default:
			return 0
		}
	}
	call := 0
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, cs := range []int{1, rowStride} {
				for k := (4*n + off) % 9; k <= 70; k += 9 {
					corners = []float64{0, 0.002, 0.4}[call%3]
					call++
					checkRowUpdate(t, n, off, k, cs, next)
				}
			}
		}
	}
}

// FuzzRowUpdate is the same differential from raw bytes: a row width, a
// start phase, a term count, a stride, and operand bit patterns read eight
// bytes at a time (the input repeats when it runs out), so signalling NaNs
// and arbitrary payloads get in.
func FuzzRowUpdate(f *testing.F) {
	if !hasAVX {
		f.Skip("hasAVX is false: no assembly row update on this host")
	}
	corners := cornerBytes()
	f.Add(uint8(67), uint8(3), uint8(31), uint8(1), corners)
	f.Add(uint8(10), uint8(1), uint8(4), uint8(7), corners[8:])
	f.Add(uint8(3), uint8(2), uint8(0), uint8(1), corners[:5*8])
	f.Add(uint8(0), uint8(0), uint8(70), uint8(3), corners[:8])
	f.Fuzz(func(t *testing.T, n, off, k, cs uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		pos := 0
		next := func() float64 {
			pos += 8
			return floatAt(data, pos-8)
		}
		checkRowUpdate(t, int(n)%68, int(off)%4, int(k)%71, 1+int(cs)%8, next)
	})
}

// TestMatMulRejectsShortRightOperand: rowUpdate reads the right operand
// unchecked, so a tensor whose data is shorter than its shape says is refused
// before any row is computed, on both paths.
func TestMatMulRejectsShortRightOperand(t *testing.T) {
	short := &Tensor{Shape: []int{4, 3}, Data: make([]float64, 11)}
	shipped := hasAVX
	defer func() { hasAVX = shipped }()
	for _, hasAVX = range []bool{shipped, false} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "tensor: right operand holds 11 elements") {
					t.Errorf("hasAVX=%v: panic %q, want the right operand's length refused", hasAVX, msg)
				}
			}()
			MatMul(New(2, 3), New(2, 4), short)
		}()
	}
}

// TestMatMulRejectsShortLeftOperand: rowUpdate reads the left operand
// unchecked too, so a short one is refused before any row is computed, on
// both paths and in both readings.
func TestMatMulRejectsShortLeftOperand(t *testing.T) {
	short := &Tensor{Shape: []int{2, 3}, Data: make([]float64, 5)}
	shipped := hasAVX
	defer func() { hasAVX = shipped }()
	for _, hasAVX = range []bool{shipped, false} {
		for name, run := range map[string]func(){
			"MatMul":   func() { MatMul(New(2, 4), short, New(3, 4)) },
			"MatMulAT": func() { MatMulAT(New(3, 4), short, New(2, 4)) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); msg != "tensor: left operand holds 5 elements, want 6" {
						t.Errorf("%s hasAVX=%v: panic %q, want the left operand's length refused", name, hasAVX, msg)
					}
				}()
				run()
			}()
		}
	}
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
