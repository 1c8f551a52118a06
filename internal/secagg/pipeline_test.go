package secagg

import (
	"crypto/aes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/stats"
)

// The reference pipeline: every piece the streamed one fuses, written the
// obvious way. It derives the keystream from the AES block function
// directly (not cipher.NewCTR), materialises each mask, and adds it in a
// second pass. Beside it, a field codec and branching field arithmetic in
// GF(2⁶¹−1) are the independent oracle for what Aggregate returns: while
// Quantizer.Check holds every sum below P/2, the field and Z₂⁶⁴ must decode
// it to the same float, bit for bit.

func refAdd(a, b uint64) uint64 {
	s := a + b
	if s >= P {
		s -= P
	}
	return s
}

func refSub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + P - b
}

func refMaskStream(seed uint64, dim int) []uint64 {
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	out := make([]uint64, 0, dim+1)
	var ctr, ks [16]byte
	for blk := uint64(0); len(out) < dim; blk++ {
		binary.BigEndian.PutUint64(ctr[8:], blk) // SP 800-38A: big-endian counter block from zero
		block.Encrypt(ks[:], ctr[:])
		out = append(out, binary.LittleEndian.Uint64(ks[:8]), binary.LittleEndian.Uint64(ks[8:]))
	}
	return out[:dim]
}

// refClip is the clipped, NaN-zeroed fixed-point integer of x.
func refClip(q Quantizer, x float64) int64 {
	x = math.Max(-q.Clip, math.Min(q.Clip, x))
	if math.IsNaN(x) {
		x = 0
	}
	return int64(x * q.Scale)
}

func refQuantize(q Quantizer, v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		if scaled := refClip(q, x); scaled >= 0 {
			out[i] = uint64(scaled)
		} else {
			out[i] = -uint64(-scaled)
		}
	}
	return out
}

func refMaskedUpdate(s *Session, i int, update []float64) []uint64 {
	y := refQuantize(s.Quant, update)
	apply := func(seed uint64, subtract bool) {
		for d, m := range refMaskStream(seed, s.Dim) {
			if subtract {
				y[d] -= m
			} else {
				y[d] += m
			}
		}
	}
	apply(s.selfSeeds[i], false)
	for j := 0; j < s.N; j++ {
		if j != i {
			apply(DeriveSeed(s.sessionSeed, i, j), j < i)
		}
	}
	return y
}

// fieldQuantize and fieldDequantize are the Mersenne-field codec: a negative
// value is its negation mod P, and a sum above P/2 decodes as negative.
func fieldQuantize(q Quantizer, v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		if scaled := refClip(q, x); scaled >= 0 {
			out[i] = Reduce(uint64(scaled))
		} else {
			out[i] = Neg(uint64(-scaled))
		}
	}
	return out
}

func fieldDequantize(q Quantizer, v []uint64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if x > P/2 {
			out[i] = -float64(P-x) / q.Scale
		} else {
			out[i] = float64(x) / q.Scale
		}
	}
	return out
}

// checkRound runs one session over random updates with the given clients
// dropped and checks the streamed pipeline end to end: every masked word
// equals the expand-then-add reference's, and Aggregate returns — to the
// last bit — what the Mersenne-field pipeline decodes from the field sum of
// the survivors' field-quantised updates. It returns the session for its
// operation counts.
func checkRound(t testing.TB, n, dim, threshold int, seed uint64, dropped []int) *Session {
	t.Helper()
	s := NewSession(n, dim, threshold, seed, DefaultQuantizer())
	rng := stats.NewRNG(seed ^ 0xd1ff)
	isDropped := make(map[int]bool, len(dropped))
	for _, d := range dropped {
		isDropped[d] = true
	}
	masked := make([][]uint64, n)
	plain := make([]uint64, dim)
	for i := 0; i < n; i++ {
		update := make([]float64, dim)
		for d := range update {
			update[d] = rng.Normal(0, 3) // wide enough that some coordinates clip
			switch d % 29 {
			case 7:
				update[d] = math.NaN()
			case 19:
				update[d] = math.Inf(1 - 2*(i%2))
			}
		}
		if isDropped[i] {
			continue
		}
		masked[i] = s.MaskedUpdate(i, update)
		want := refMaskedUpdate(s, i, update)
		for d := range want {
			if masked[i][d] != want[d] {
				t.Fatalf("n=%d dim=%d client %d word %d: fused fold %#x, expand-then-add reference %#x", n, dim, i, d, masked[i][d], want[d])
			}
		}
		for d, w := range fieldQuantize(s.Quant, update) {
			plain[d] = refAdd(plain[d], w)
		}
	}
	got, err := s.Aggregate(masked, dropped)
	if err != nil {
		t.Fatalf("n=%d dim=%d dropped=%v: %v", n, dim, dropped, err)
	}
	want := fieldDequantize(s.Quant, plain)
	for d := range want {
		if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
			t.Fatalf("n=%d dim=%d dropped=%v: aggregate[%d] = %v, field-pipeline sum %v", n, dim, dropped, d, got[d], want[d])
		}
	}
	return s
}

// TestStreamedPipelineMatchesReference is the differential test of the
// streamed mask pipeline over random group sizes, dimensions on and off the
// chunk boundary, clean and with every dropout count the threshold admits.
func TestStreamedPipelineMatchesReference(t *testing.T) {
	rng := stats.NewRNG(20240928)
	dims := []int{1, maskChunk - 1, maskChunk, maskChunk + 1, 2 * maskChunk, 3*maskChunk + 17}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(11)
		dim := dims[trial%len(dims)]
		threshold := Threshold(n)
		for k := 0; k <= n-threshold; k++ {
			checkRound(t, n, dim, threshold, rng.Uint64(), rng.Perm(n)[:k])
		}
	}
}

// TestQuantizeMatchesReference pins the two's-complement encoding and the
// defined NaN encoding against the branching definition.
func TestQuantizeMatchesReference(t *testing.T) {
	q := DefaultQuantizer()
	v := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1.0 / (1 << 20), -1.0 / (1 << 20), 7.99, -7.99, 8, -8, 9, -9,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	rng := stats.NewRNG(3)
	for i := 0; i < 2000; i++ {
		v = append(v, rng.Normal(0, 4))
	}
	got, want := q.Quantize(v), refQuantize(q, v)
	for i := range v {
		if got[i] != want[i] {
			t.Fatalf("Quantize(%v) = %#x, reference %#x", v[i], got[i], want[i])
		}
	}
	if w := q.Quantize([]float64{math.NaN()})[0]; w != 0 {
		t.Fatalf("Quantize(NaN) = %#x, defined as 0", w)
	}
}

// TestFieldAddSubMatchReference checks the sign-mask Add and Sub against the
// branching definitions at the wrap boundaries and on random elements.
func TestFieldAddSubMatchReference(t *testing.T) {
	vals := []uint64{0, 1, 2, P/2 - 1, P / 2, P/2 + 1, P - 2, P - 1}
	rng := stats.NewRNG(4)
	for i := 0; i < 200; i++ {
		vals = append(vals, Reduce(rng.Uint64()))
	}
	for _, a := range vals {
		for _, b := range vals {
			if Add(a, b) != refAdd(a, b) || Sub(a, b) != refSub(a, b) {
				t.Fatalf("a=%d b=%d: Add %d (ref %d), Sub %d (ref %d)", a, b, Add(a, b), refAdd(a, b), Sub(a, b), refSub(a, b))
			}
		}
	}
}

// TestMaskStreamKnownAnswer pins the keystream both endpoints of a pairwise
// mask must agree on, in the shape of the SP 800-38A AES-128-CTR vectors:
// a fixed key (the seed, little-endian, zero-extended), the zero counter
// block, and the first four output blocks read as eight little-endian
// words, as they are (the literals are `openssl enc -aes-128-ctr` over
// zeros with that key and IV). A refactor that changes any of those
// choices changes the masked words on the wire and must fail here.
func TestMaskStreamKnownAnswer(t *testing.T) {
	const seed = 0x0706050403020100
	want := []uint64{
		0x4b22485fbca61636, 0x22ab38a95b9a7d56, 0xadd28c31287a228e, 0x1c545fbaae8a2a1b,
		0x87044a5a9753aea2, 0xe53206c437f24db5, 0x345897042f9a1e13, 0x8b714f2e0142eb99,
	}
	got := MaskStream(seed, len(want))
	ref := refMaskStream(seed, len(want))
	for i := range want {
		if got[i] != ref[i] {
			t.Fatalf("word %d: MaskStream %#016x, AES block-function reference %#016x", i, got[i], ref[i])
		}
		if got[i] != want[i] {
			t.Errorf("word %d: MaskStream %#016x, pinned %#016x", i, got[i], want[i])
		}
	}
}

// TestOpCountsUnchanged pins the operation counts the Fig. 8 experiment and
// the fel_secagg_* counters report: the streamed pipeline changed the cost
// of a mask stream, not how many there are. The literals were recorded on
// the expand-then-add implementation for the same inputs.
func TestOpCountsUnchanged(t *testing.T) {
	const n, dim, threshold = 7, 25, 4
	for _, tc := range []struct {
		dropped []int
		want    OpCounts
	}{
		{nil, OpCounts{MaskStreams: 56, SharesDealt: 98, SharesUsed: 28, FieldOps: 1575}},
		{[]int{2, 5}, OpCounts{MaskStreams: 50, SharesDealt: 98, SharesUsed: 28, FieldOps: 1375}},
	} {
		s := checkRound(t, n, dim, threshold, 1234, tc.dropped)
		if got := s.Ops(); got != tc.want {
			t.Errorf("dropped %v: ops %+v, want %+v", tc.dropped, got, tc.want)
		}
		// The closed forms behind the literals: s survivors each expand n
		// streams; the server removes s personal masks and k·s pairwise ones.
		k := len(tc.dropped)
		sv := n - k
		streams := sv*n + sv + k*sv
		if got := s.Ops(); got.MaskStreams != streams || got.FieldOps != (streams+sv)*dim || got.SharesUsed != (sv+k)*threshold {
			t.Errorf("dropped %v: ops %+v do not match the closed forms (streams %d)", tc.dropped, got, streams)
		}
	}
}

// TestMaskPipelineAllocs is the guard on the pipeline's memory shape: a
// mask stream costs its cipher state and the fold's keystream chunk —
// fixed-size objects, measured here rather than assumed — and nothing
// proportional to the vector. MaskedUpdate therefore allocates the returned
// vector plus n stream states, MaskedUpdateInto into a buffer of Dim words
// (QuantizeInto under it) the n stream states alone, Aggregate its result
// and n stream states, and the streaming form — Begin on a kept sum, n
// Folds, Unmask into a kept result — the n stream states alone, whatever the
// dimension. Folding on a stream already keyed allocates the keystream chunk
// alone, one object for four chunks' worth of accumulator.
func TestMaskPipelineAllocs(t *testing.T) {
	acc := make([]uint64, 4*maskChunk)
	prg := newMaskPRG(7)
	if n := testing.AllocsPerRun(50, func() { foldMask(acc, prg, true) }); n != 1 {
		t.Errorf("foldMask on a keyed stream allocates %v objects, want exactly its keystream chunk", n)
	}
	perStream := int(testing.AllocsPerRun(50, func() { foldMask(acc, newMaskPRG(7), false) }))
	for _, n := range []int{2, 12} {
		var maskAllocs, intoAllocs, aggAllocs, streamAllocs [2]int
		for di, dim := range []int{maskChunk, 100 * maskChunk} {
			s := NewSession(n, dim, Threshold(n), 5, DefaultQuantizer())
			update := make([]float64, dim)
			masked := make([][]uint64, n)
			for i := range masked {
				masked[i] = s.MaskedUpdate(i, update)
			}
			maskAllocs[di] = int(testing.AllocsPerRun(20, func() { s.MaskedUpdate(1, update) }))
			words := make([]uint64, dim)
			intoAllocs[di] = int(testing.AllocsPerRun(20, func() { words = s.MaskedUpdateInto(words, 1, update) }))
			aggAllocs[di] = int(testing.AllocsPerRun(20, func() {
				if _, err := s.Aggregate(masked, nil); err != nil {
					t.Fatal(err)
				}
			}))
			sum, result := make([]uint64, dim), make([]float64, dim)
			streamAllocs[di] = int(testing.AllocsPerRun(20, func() {
				s.Begin(sum)
				for i, w := range masked {
					if err := s.Fold(i, w); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if result, err = s.Unmask(result, nil); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if want := 1 + n*perStream; maskAllocs[0] != want || maskAllocs[1] != want {
			t.Errorf("n=%d: MaskedUpdate allocates %v objects at dim %d and %v at dim %d, want 1 + n·%v = %v at both",
				n, maskAllocs[0], maskChunk, maskAllocs[1], 100*maskChunk, perStream, want)
		}
		if want := n * perStream; intoAllocs[0] != want || intoAllocs[1] != want {
			t.Errorf("n=%d: MaskedUpdateInto a reused buffer allocates %v objects at dim %d and %v at dim %d, want n·%v = %v at both",
				n, intoAllocs[0], maskChunk, intoAllocs[1], 100*maskChunk, perStream, want)
		}
		// The result; the sum, the folded and dropped sets and the share
		// scratch are the session's, kept across calls.
		if want := 1 + n*perStream; aggAllocs[0] != want || aggAllocs[1] != want {
			t.Errorf("n=%d: Aggregate allocates %v objects at dim %d and %v at dim %d, want 1 + n·%v = %v at both",
				n, aggAllocs[0], maskChunk, aggAllocs[1], 100*maskChunk, perStream, want)
		}
		if want := n * perStream; streamAllocs[0] != want || streamAllocs[1] != want {
			t.Errorf("n=%d: Begin, n Folds and Unmask into kept storage allocate %v objects at dim %d and %v at dim %d, want n·%v = %v at both",
				n, streamAllocs[0], maskChunk, streamAllocs[1], 100*maskChunk, perStream, want)
		}
	}
}
