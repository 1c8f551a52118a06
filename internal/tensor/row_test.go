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
// their backing array (every 8-byte phase of a 32-byte vector), with cnt
// staged terms whose b rows sit at ascending offsets with gaps, as
// accumRows' compress pass leaves them, in a right operand at its own phase.
// Operands come from next in a fixed order. The result is held to
// accumRows' Go row update, one term at a time from the left: same bits,
// NaN for NaN (sameResult says why the payload is not promised), and not
// one element written outside the row.
func checkRowUpdate(t testing.TB, n, off, cnt int, next func() float64) {
	sentinel := math.Float64frombits(0xdeadbeefcafef00d)
	back := make([]float64, rowGuard+off+n+rowGuard)
	for i := range back {
		back[i] = sentinel
	}
	at := rowGuard + off
	d := back[at : at+n]
	var av [stage]float64
	var offs [stage]int
	rows := 0
	for e := 0; e < cnt; e++ {
		av[e] = next()
		rows += int(math.Float64bits(next()) % 3) // 0–2 zero entries skipped
		offs[e] = rows * n
		rows++
	}
	b := make([]float64, rows*n+4)[(off+1)%4:] // never empty, so &b[0] is valid at n = 0
	for i := range b[:rows*n] {
		b[i] = next()
	}
	want := make([]float64, n)
	for j := range want {
		d[j] = next()
		w := d[j]
		for e := 0; e < cnt; e++ {
			w += float64(av[e] * b[offs[e]+j])
		}
		want[j] = w
	}

	rowUpdate(&back[at], n, &b[0], &av[0], &offs[0], cnt)

	if i := sameResult(d, want); i >= 0 {
		t.Fatalf("n=%d off=%d cnt=%d: column %d is %x (%v), the Go update gives %x (%v); av=%v", n, off, cnt, i,
			math.Float64bits(d[i]), d[i], math.Float64bits(want[i]), want[i], av[:cnt])
	}
	for i, v := range back {
		if (i < at || i >= at+n) && math.Float64bits(v) != math.Float64bits(sentinel) {
			t.Fatalf("n=%d off=%d cnt=%d: guard element %d (row is [%d, %d)) was overwritten with %x", n, off, cnt, i, at, at+n, math.Float64bits(v))
		}
	}
}

// TestRowUpdateMatchesGo drives the assembly routine directly over every row
// width that mixes its two parts (blocks of sixteen columns, a masked tail
// of 1–15) from every 8-byte phase of a 32-byte vector, each at four staged
// counts a quarter of the staging apart, so every count 1–32 meets every
// tail length, with the corner values in every operand position.
func TestRowUpdateMatchesGo(t *testing.T) {
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
			for cnt := 1 + (4*n+off)%(stage/4); cnt <= stage; cnt += stage / 4 {
				checkRowUpdate(t, n, off, cnt, next)
			}
		}
	}
}

// FuzzRowUpdate is the same differential from raw bytes: a row width, a
// start phase, a staged count, and operand bit patterns read eight bytes at
// a time (the input repeats when it runs out), so signalling NaNs and
// arbitrary payloads get in.
func FuzzRowUpdate(f *testing.F) {
	if !hasAVX {
		f.Skip("hasAVX is false: no assembly row update on this host")
	}
	corners := cornerBytes()
	f.Add(uint8(67), uint8(3), uint8(31), corners)
	f.Add(uint8(10), uint8(1), uint8(4), corners[8:])
	f.Add(uint8(3), uint8(2), uint8(0), corners[:5*8])
	f.Add(uint8(0), uint8(0), uint8(7), corners[:8])
	f.Fuzz(func(t *testing.T, n, off, cnt uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		pos := 0
		next := func() float64 {
			pos += 8
			return floatAt(data, pos-8)
		}
		checkRowUpdate(t, int(n)%68, int(off)%4, 1+int(cnt)%stage, next)
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
