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

// rowGuard is how many sentinel elements sit on each side of the output
// rows: an assembly routine that runs past either end fails no bounds check.
const rowGuard = 8

// Where checkRowsUpdate plants a non-finite left entry: nowhere, in the first
// row, in the second row (of the first pair, on the pair path) or in the last.
const (
	plantNone = iota
	plantFirst
	plantSecond
	plantLast
	plants
)

// Bias kinds of checkRowsUpdate: none (a nil pointer), finite values with
// signed zeros, finite values with ±Inf among them, and finite with a NaN.
const (
	biasNil = iota
	biasFinite
	biasInf
	biasNaN
	biasKinds
)

// rowsCase is one call of rowsUpdate: rows output rows of n columns that
// start off elements into their backing array (every 8-byte phase of a
// 32-byte vector), over k terms read from the left operand at row stride
// rs and term stride cs, with a bias of kind bias and a non-finite left
// entry planted per plant.
type rowsCase struct {
	rows, n, off, k, rs, cs int
	bias, plant             int
}

// checkRowsUpdate calls rowsUpdate on c, operands drawn from next in a fixed
// order. The output rows start as NaN (the routine writes them, never reads
// them) inside rowGuard sentinels either side; the left operand's unread
// elements, rowGuard elements past the right operand's last row and past
// the bias are NaN, where a masked-off lane that read memory would pick them
// up. Every row is held to a Go loop that applies every term from +0 in
// ascending p and then the bias, bit for bit, NaN for NaN (sameResult says
// why the payload is not promised), and every sentinel to not written.
func checkRowsUpdate(t testing.TB, c rowsCase, next func() float64) {
	sentinel, nan := math.Float64frombits(0xdeadbeefcafef00d), math.NaN()
	size := c.rows * c.n
	back := make([]float64, rowGuard+c.off+size+rowGuard)
	for i := range back {
		back[i] = sentinel
	}
	at := rowGuard + c.off
	d := back[at : at+size]
	for i := range d {
		d[i] = nan
	}
	aLen := 1 // never empty, so &a[0] is valid at k = 0
	if c.k > 0 {
		aLen = max(aLen, (c.rows-1)*c.rs+(c.k-1)*c.cs+1)
	}
	a := make([]float64, aLen)
	for i := range a {
		a[i] = nan
	}
	for i := 0; i < c.rows; i++ {
		for p := 0; p < c.k; p++ {
			a[i*c.rs+p*c.cs] = next()
		}
	}
	plantRow := -1
	switch c.plant {
	case plantFirst:
		plantRow = 0
	case plantSecond:
		plantRow = 1
	case plantLast:
		plantRow = c.rows - 1
	}
	if c.k > 0 && plantRow >= 0 && plantRow < c.rows {
		a[plantRow*c.rs+(c.k-1)/2*c.cs] = []float64{math.Inf(1), math.Inf(-1), nan}[c.k%3]
	}
	bBack := make([]float64, 4+c.k*c.n+rowGuard)
	b := bBack[(c.off+1)%4:] // never empty, so &b[0] is valid at n = 0 or k = 0
	for i := range b {
		b[i] = nan
	}
	for i := range b[:c.k*c.n] {
		b[i] = next()
	}
	var bias []float64
	var bp *float64
	if c.bias != biasNil {
		biasBack := make([]float64, c.n+rowGuard)
		for i := range biasBack {
			biasBack[i] = nan
		}
		bias = biasBack[:c.n]
		for j := range bias {
			switch v := next(); {
			case math.IsInf(v, 0) || math.IsNaN(v):
				bias[j] = 0.5 // finite unless the kind says otherwise
			case v == 0:
				bias[j] = math.Copysign(0, float64(j%2)-0.5)
			default:
				bias[j] = v
			}
		}
		if c.n > 0 {
			switch c.bias {
			case biasInf:
				bias[c.n/2] = math.Inf(1)
				bias[c.n-1] = math.Inf(-1)
			case biasNaN:
				bias[(c.n-1)/3] = nan
			}
		}
		bp = &biasBack[0]
	}
	want := make([]float64, size)
	for i := 0; i < c.rows; i++ {
		for j := 0; j < c.n; j++ {
			w := 0.0
			for p := 0; p < c.k; p++ {
				w += float64(a[i*c.rs+p*c.cs] * b[p*c.n+j])
			}
			if bias != nil {
				w += bias[j]
			}
			want[i*c.n+j] = w
		}
	}

	dp := &back[at] // rows·n = 0 only when n = 0: the routine then stores nothing
	rowsUpdate(dp, c.n, &b[0], &a[0], c.rs, c.cs, c.k, c.rows, bp)

	if i := sameResult(d, want); i >= 0 {
		t.Fatalf("%+v: row %d column %d is %x (%v), the Go loop gives %x (%v); a=%v bias=%v", c, i/c.n, i%c.n,
			math.Float64bits(d[i]), d[i], math.Float64bits(want[i]), want[i], a, bias)
	}
	for i, v := range back {
		if (i < at || i >= at+size) && math.Float64bits(v) != math.Float64bits(sentinel) {
			t.Fatalf("%+v: guard element %d (rows are [%d, %d)) was overwritten with %x", c, i, at, at+size, math.Float64bits(v))
		}
	}
}

// rowReadings are the left operand's (rs, cs) for a case of rows rows over k
// terms: MatMul's row-major reading, MatMulAT's transposed one (m = 7, so
// every row count here is a column of it) and ColSum's single entry.
var rowReadings = []struct {
	name   string
	rs, cs func(rows, k int) int
}{
	{"row-major", func(_, k int) int { return k }, func(int, int) int { return 1 }},
	{"transposed", func(int, int) int { return 1 }, func(int, int) int { return 7 }},
	{"ones", func(int, int) int { return 0 }, func(int, int) int { return 0 }},
}

// TestRowUpdateMatchesGo drives the assembly routine directly over every row
// width that mixes its parts (the pair path's 1–15 columns, blocks of 32
// and 16 columns and a masked tail of 1–15) from every 8-byte phase of a
// 32-byte vector, in each of rowReadings, each at eight term counts nine
// apart, so every count 0–70 meets every tail length. Each width's 96 calls
// run through all 80 combinations of 1–5 rows (odd counts leave one row
// behind the pairs), the four bias kinds and the four plants of a
// non-finite left entry. Three operand mixes take turns: finite values with
// zeros; ones with a few corner values, so that some rows are finite and
// some not; and corner values in 40 % of the operand positions.
func TestRowUpdateMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("hasAVX is false: no assembly row update on this host")
	}
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
			for _, rd := range rowReadings {
				for k := (4*n + off) % 9; k <= 70; k += 9 {
					combo := call % (5 * biasKinds * plants)
					rows := 1 + combo%5
					c := rowsCase{rows: rows, n: n, off: off, k: k, rs: rd.rs(rows, k), cs: rd.cs(rows, k),
						bias: combo / 5 % biasKinds, plant: combo / (5 * biasKinds)}
					corners = []float64{0, 0.002, 0.4}[call%3]
					call++
					checkRowsUpdate(t, c, next)
				}
			}
		}
	}
}

// FuzzRowUpdate is the same differential from raw bytes: a row count, a row
// width, a start phase, a term count, a reading, a bias kind, a plant, and
// operand bit patterns read eight bytes at a time (the input repeats when it
// runs out), so signalling NaNs and arbitrary payloads get in.
func FuzzRowUpdate(f *testing.F) {
	if !hasAVX {
		f.Skip("hasAVX is false: no assembly row update on this host")
	}
	corners := cornerBytes()
	var finite []byte // values whose sums round, none of them zero or non-finite
	for _, v := range []float64{0.1, -1.0 / 3, 2.7e-3, 12345.678, -0.7} {
		finite = binary.LittleEndian.AppendUint64(finite, math.Float64bits(v))
	}
	f.Add(uint8(1), uint8(67), uint8(3), uint8(31), uint8(0), corners)
	f.Add(uint8(5), uint8(10), uint8(1), uint8(4), uint8(1+3*biasFinite+12*plantSecond), corners[8:])
	f.Add(uint8(3), uint8(3), uint8(2), uint8(0), uint8(2+3*biasInf), corners[:5*8])
	f.Add(uint8(2), uint8(0), uint8(0), uint8(70), uint8(3*biasNaN+12*plantLast), corners[:8])
	f.Add(uint8(4), uint8(15), uint8(0), uint8(16), uint8(3*biasFinite+12*plantFirst), corners[16:])
	// A non-finite entry in the second row of the first pair only, and a
	// finite bias that meets sums that round: a bias added before the sum
	// fails these two.
	f.Add(uint8(3), uint8(10), uint8(1), uint8(9), uint8(3*biasFinite+12*plantSecond), finite)
	f.Add(uint8(2), uint8(32), uint8(0), uint8(11), uint8(3*biasFinite), finite)
	f.Fuzz(func(t *testing.T, rows, n, off, k, mode uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		pos := 0
		next := func() float64 {
			pos += 8
			return floatAt(data, pos-8)
		}
		rd := rowReadings[int(mode)%3]
		c := rowsCase{rows: 1 + int(rows)%5, n: int(n) % 68, off: int(off) % 4, k: int(k) % 71,
			bias: int(mode) / 3 % biasKinds, plant: int(mode) / 12 % plants}
		c.rs, c.cs = rd.rs(c.rows, c.k), rd.cs(c.rows, c.k)
		checkRowsUpdate(t, c, next)
	})
}

// TestMatMulRejectsShortRightOperand: rowsUpdate reads the right operand
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

// TestMatMulRejectsShortLeftOperand: rowsUpdate reads the left operand
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

// TestBiasAndColSumRejectBadShapes: a bias or a column-sum destination that
// is not one element per output column, a column sum of a tensor that is
// not 2-D, and an output whose data is shorter than its shape says are
// refused by name before any row is computed, on both paths — rowsUpdate
// reads the bias and the operands and writes the output unchecked.
func TestBiasAndColSumRejectBadShapes(t *testing.T) {
	wantPanics(t, map[string]func(){
		"tensor: MatMulBias bias [4]":       func() { MatMulBias(New(2, 3), New(2, 4), New(4, 3), New(4)) },
		"tensor: ColSum wants a 2-D":        func() { ColSum(New(3), New(3)) },
		"tensor: ColSum dst [4]":            func() { ColSum(New(4), New(2, 3)) },
		"tensor: output holds 5 elements":   func() { MatMul(&Tensor{Shape: []int{2, 3}, Data: make([]float64, 5)}, New(2, 4), New(4, 3)) },
		"tensor: MatMulBias wants 2-D oper": func() { MatMulBias(New(3), New(2, 4), New(4, 3), New(3)) },
	})
}

// TestMatMulDimensionPanics: a product whose inner dimensions differ is
// refused by name, on both paths, for each of the three operand layouts.
func TestMatMulDimensionPanics(t *testing.T) {
	wantPanics(t, map[string]func(){
		"tensor: MatMul inner dims 3 vs 4":   func() { MatMul(New(2, 5), New(2, 3), New(4, 5)) },
		"tensor: MatMulAT inner dims 3 vs 4": func() { MatMulAT(New(2, 5), New(3, 2), New(4, 5)) },
		"tensor: MatMulBT inner dims 3 vs 4": func() { MatMulBT(New(2, 5), New(2, 3), New(5, 4)) },
	})
}

// wantPanics runs each call with the AVX path as shipped and with the
// portable path, and fails unless it panics with a message starting with
// its key.
func wantPanics(t *testing.T, calls map[string]func()) {
	t.Helper()
	shipped := hasAVX
	defer func() { hasAVX = shipped }()
	for _, hasAVX = range []bool{shipped, false} {
		for want, run := range calls {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
						t.Errorf("hasAVX=%v: panic %q, want one starting %q", hasAVX, msg, want)
					}
				}()
				run()
			}()
		}
	}
}
