package wire_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/faultnet"
	"repro/internal/stats"
	"repro/internal/wire"
)

// fuzzMaxFrame keeps the fuzzer from allocating per the header's own
// claimed payload length.
const fuzzMaxFrame = 1 << 20

// encodeFrame builds one valid frame for the corpus, through both entry
// points of the encoder: Encode's bytes and AppendFrame's behind an
// unrelated prefix must be the same frame.
func encodeFrame(tb testing.TB, m *wire.Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := wire.Encode(&buf, m); err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	prefix := []byte("prefix")
	appended, err := wire.AppendFrame(prefix, m)
	if err != nil {
		tb.Fatalf("AppendFrame: %v", err)
	}
	if !bytes.HasPrefix(appended, prefix) || !bytes.Equal(appended[len(prefix):], buf.Bytes()) {
		tb.Fatalf("AppendFrame behind a prefix differs from Encode for %+v", m)
	}
	return buf.Bytes()
}

// TestEncodeBytesPinned holds the encoder to the frames it produced before
// it became append-style: one digest per message type over the fuzz corpus
// fixtures, recorded on the make-a-buffer-and-Write implementation. Peers
// and checkpoint files written by either must stay mutually readable.
func TestEncodeBytesPinned(t *testing.T) {
	want := map[wire.Type]string{
		wire.GlobalModel:     "d46991f6b6c8b4d0",
		wire.GroupAssign:     "edf6ed76dbb5440b",
		wire.MaskedUpdate:    "75438d18adc4b03a",
		wire.ShareReveal:     "b88e1c70af760295",
		wire.GroupAggregate:  "74bc52468ba44319",
		wire.GlobalAggregate: "ae6945e5d9479286",
		wire.Checkpoint:      "9ff9d6daf02118c3",
		wire.JobControl:      "a58f4242206bb076",
	}
	corpus := corpusMessages()
	if len(corpus) != len(want) {
		t.Fatalf("corpus has %d messages, %d digests pinned", len(corpus), len(want))
	}
	var reused []byte
	for _, m := range corpus {
		frame := encodeFrame(t, m)
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:8]); got != want[m.Type] {
			t.Errorf("%s frame digest %s, pinned %s", m.Type, got, want[m.Type])
		}
		// A reused buffer — the broadcast path — yields the same bytes.
		var err error
		if reused, err = wire.AppendFrame(reused[:0], m); err != nil || !bytes.Equal(reused, frame) {
			t.Errorf("%s: AppendFrame into a reused buffer differs from Encode (err %v)", m.Type, err)
		}
	}
	if _, err := wire.AppendFrame(nil, &wire.Message{Type: 0}); !errors.Is(err, wire.ErrBadType) {
		t.Errorf("AppendFrame of type 0: err = %v, want ErrBadType", err)
	}
}

// corpusMessages covers all eight message types with every vector population
// the codec distinguishes: floats only, words only, ints only, all three,
// all empty, and special float values. The Checkpoint entry mirrors the
// felserve spec frame's shape, so the fuzzer starts at a payload layout the
// serving layer persists.
func corpusMessages() []*wire.Message {
	return []*wire.Message{
		{Type: wire.GlobalModel, Round: 0, Seq: 0, From: -1, Floats: []float64{0.5, -1.25, 3e-9}},
		{Type: wire.GroupAssign, Round: 1, Seq: 0, From: 4, Ints: []int32{0, 7, 11}},
		{Type: wire.MaskedUpdate, Round: 2, Seq: 1, From: 9, Words: []uint64{1, 1<<61 - 1, 42}},
		{Type: wire.ShareReveal, Round: 3, Seq: 0, From: 2, Words: []uint64{5, 6}, Ints: []int32{1}},
		{Type: wire.GroupAggregate, Round: 4, Seq: 1, From: 0, Floats: []float64{math.Inf(1), math.NaN(), -0.0}},
		{Type: wire.GlobalAggregate, Round: 5, Seq: 0, From: -1, Floats: []float64{1}, Words: []uint64{2}, Ints: []int32{3}},
		{Type: wire.Checkpoint, Round: 6, Seq: 0, From: -1,
			Floats: []float64{0.05, 0, 1.5}, Words: []uint64{0xdeadbeef, 7},
			Ints: []int32{6, 2, 1, 16, 0, 3, 1, 0, 0, 1, 0}},
		{Type: wire.JobControl, Round: 0, Seq: 1, From: 12, Ints: []int32{104, 105}},
	}
}

// tailBits are the float bit patterns and words the tail tests cycle
// through: quiet and signalling NaNs with payloads, −0, ±Inf, the smallest
// and largest subnormals, all ones, and ordinary values.
var tailBits = []uint64{
	0x7ff8000000000001, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x000fffffffffffff, 0xffffffffffffffff, 0x7ff00000deadbeef,
	0x3ff0000000000000, 0xc00921fb54442d18, 0x0000000000000000,
}

// tailMessages returns one message per vector length 0 through 9 — every
// tail of the codec's four-word steps, twice over — whose Floats and Words
// cycle through tailBits from a different start each.
func tailMessages() []*wire.Message {
	var out []*wire.Message
	for n := 0; n <= 9; n++ {
		m := &wire.Message{Type: wire.MaskedUpdate, Round: uint32(n), Seq: 3, From: int32(-n),
			Floats: make([]float64, n), Words: make([]uint64, n), Ints: make([]int32, n%3)}
		for i := 0; i < n; i++ {
			m.Floats[i] = math.Float64frombits(tailBits[(n+i)%len(tailBits)])
			m.Words[i] = tailBits[(2*n+3*i)%len(tailBits)]
		}
		for i := range m.Ints {
			m.Ints[i] = int32(-1 - i)
		}
		out = append(out, m)
	}
	return out
}

// TestCodecTails round-trips every vector length from 0 to 9 through one
// reused Message — lengths rising, then falling, so the vectors both grow
// and shrink in place — and through DecodeFunc's lent one, and compares bit
// for bit. Each frame's payload is also held to a value-by-value big-endian
// encoding written here, so a fault the encoder and decoder share (a swapped
// pair in the four-word step, say) cannot cancel out.
func TestCodecTails(t *testing.T) {
	msgs := tailMessages()
	var m wire.Message
	for _, idx := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0} {
		want := msgs[idx]
		frame := encodeFrame(t, want)
		pay := binary.BigEndian.AppendUint32(nil, want.Seq)
		pay = binary.BigEndian.AppendUint32(pay, uint32(want.From))
		pay = binary.BigEndian.AppendUint32(pay, uint32(len(want.Floats)))
		for _, f := range want.Floats {
			pay = binary.BigEndian.AppendUint64(pay, math.Float64bits(f))
		}
		pay = binary.BigEndian.AppendUint32(pay, uint32(len(want.Words)))
		for _, w := range want.Words {
			pay = binary.BigEndian.AppendUint64(pay, w)
		}
		pay = binary.BigEndian.AppendUint32(pay, uint32(len(want.Ints)))
		for _, v := range want.Ints {
			pay = binary.BigEndian.AppendUint32(pay, uint32(v))
		}
		if !bytes.Equal(frame[wire.HeaderSize:], pay) {
			t.Fatalf("length %d: payload % x, want % x", idx, frame[wire.HeaderSize:], pay)
		}
		same := func(got *wire.Message) error {
			sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if got.Type != want.Type || got.Round != want.Round || got.Seq != want.Seq || got.From != want.From ||
				!slices.EqualFunc(got.Floats, want.Floats, sameBits) || !slices.Equal(got.Words, want.Words) || !slices.Equal(got.Ints, want.Ints) {
				return fmt.Errorf("decoded %+v, want %+v", got, want)
			}
			return nil
		}
		if err := wire.DecodeInto(bytes.NewReader(frame), 0, &m); err != nil {
			t.Fatalf("length %d: DecodeInto: %v", idx, err)
		}
		if err := same(&m); err != nil {
			t.Fatalf("length %d, reused Message: %v", idx, err)
		}
		if err := wire.DecodeFunc(bytes.NewReader(frame), 0, same); err != nil {
			t.Fatalf("length %d, lent Message: %v", idx, err)
		}
	}
}

// FuzzDecodeFrame asserts the decoder's contract over arbitrary bytes:
// it never panics, every failure maps to a named error class, the exported
// header view agrees with it on every input's header (checkHeaderView), and
// every successful decode re-encodes to a frame that decodes back to the
// same message. The corpus seeds valid frames of every type plus frames mangled
// by the faultnet mutators, so the fuzzer starts at the exact boundaries
// the chaos harness exercises at runtime.
func FuzzDecodeFrame(f *testing.F) {
	rng := stats.NewRNG(0xFE1D)
	for _, m := range corpusMessages() {
		frame := encodeFrame(f, m)
		f.Add(frame)
		f.Add(faultnet.CorruptBits(frame, 3, rng))
		f.Add(faultnet.TruncateFrame(frame, rng))
	}
	for _, m := range tailMessages() {
		f.Add(encodeFrame(f, m))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFE}, wire.HeaderSize))
	f.Add(bytes.Repeat([]byte{0x00}, wire.HeaderSize+20))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.Decode(bytes.NewReader(data), fuzzMaxFrame)
		checkHeaderView(t, data, m, err)
		if err != nil {
			if class := wire.ErrorClass(err); class == "" || class == "timeout" {
				t.Fatalf("Decode error %v maps to class %q; every decode failure needs a real class", err, class)
			}
			return
		}
		reframed := encodeFrame(t, m)
		m2, err := wire.Decode(bytes.NewReader(reframed), fuzzMaxFrame)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if m2.Type != m.Type || m2.Round != m.Round || m2.Seq != m.Seq || m2.From != m.From {
			t.Fatalf("round trip changed envelope: %+v vs %+v", m, m2)
		}
		if len(m2.Floats) != len(m.Floats) || len(m2.Words) != len(m.Words) || len(m2.Ints) != len(m.Ints) {
			t.Fatalf("round trip changed vector lengths: %+v vs %+v", m, m2)
		}
		for i := range m.Floats {
			if math.Float64bits(m2.Floats[i]) != math.Float64bits(m.Floats[i]) {
				t.Fatalf("float %d changed: %x vs %x", i, math.Float64bits(m.Floats[i]), math.Float64bits(m2.Floats[i]))
			}
		}
		for i := range m.Words {
			if m2.Words[i] != m.Words[i] {
				t.Fatalf("word %d changed: %d vs %d", i, m.Words[i], m2.Words[i])
			}
		}
		for i := range m.Ints {
			if m2.Ints[i] != m.Ints[i] {
				t.Fatalf("int %d changed: %d vs %d", i, m.Ints[i], m2.Ints[i])
			}
		}
	})
}

// checkHeaderView holds wire.ParseHeader over data to what Decode made of the
// same bytes (m, err): a header it rejects fails Decode with the same class,
// a header it accepts leaves Decode to fail only on what follows the header
// and otherwise to agree on the type, the round and, for exactly one frame,
// the Seq the view reports. A stream shorter than a header is truncated to
// the view and truncated or a clean EOF to Decode.
func checkHeaderView(t *testing.T, data []byte, m *wire.Message, err error) {
	h, herr := wire.ParseHeader(data, fuzzMaxFrame)
	view, class := wire.ErrorClass(herr), wire.ErrorClass(err)
	switch {
	case len(data) < wire.HeaderSize:
		if view != "truncated" || (class != "truncated" && class != "eof") {
			t.Fatalf("%d-byte stream: header view %q (%v), Decode %q (%v)", len(data), view, herr, class, err)
		}
	case herr != nil:
		if class != view {
			t.Fatalf("header view fails with %q (%v), Decode with %q (%v)", view, herr, class, err)
		}
	case class != "" && class != "truncated" && class != "checksum" && class != "malformed":
		t.Fatalf("header view accepts %+v, Decode fails it with %q (%v)", h, class, err)
	case err == nil:
		if m.Type != h.Type || m.Round != h.Round {
			t.Fatalf("header view reads %+v, Decode %s round %d", h, m.Type, m.Round)
		}
		if seq, whole := h.Seq(data); whole != (len(data) == h.FrameLen()) || whole && seq != m.Seq {
			t.Fatalf("header view reads Seq %d (whole %v) of a %d-byte frame, Decode %d", seq, whole, len(data), m.Seq)
		}
	}
}

// FuzzDecodeIntoReuse is the differential check on storage reuse: for any
// input, DecodeInto on a deliberately dirty Message — every field set, every
// vector longer than the corpus frames carry — and DecodeFunc on a pooled
// one agree with a fresh Decode on the error class and, on success, on
// every field. Seeded like FuzzDecodeFrame.
func FuzzDecodeIntoReuse(f *testing.F) {
	rng := stats.NewRNG(0xFE1D)
	for _, m := range corpusMessages() {
		frame := encodeFrame(f, m)
		f.Add(frame)
		f.Add(faultnet.CorruptBits(frame, 3, rng))
		f.Add(faultnet.TruncateFrame(frame, rng))
	}
	for _, m := range tailMessages() {
		f.Add(encodeFrame(f, m))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFE}, wire.HeaderSize))
	f.Add(bytes.Repeat([]byte{0x00}, wire.HeaderSize+20))

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, errFresh := wire.Decode(bytes.NewReader(data), fuzzMaxFrame)
		dirty := wire.Message{
			Type: wire.JobControl, Round: 0xdead, Seq: 0xbeef, From: -77,
			Floats: []float64{1, 2, 3, 4, 5, 6, 7, 8},
			Words:  []uint64{9, 10, 11, 12, 13, 14, 15, 16},
			Ints:   []int32{17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32},
		}
		errInto := wire.DecodeInto(bytes.NewReader(data), fuzzMaxFrame, &dirty)
		var lent wire.Message // DecodeFunc's Message, copied out of the call
		errLent := wire.DecodeFunc(bytes.NewReader(data), fuzzMaxFrame, func(m *wire.Message) error {
			lent = *m
			lent.Floats, lent.Words, lent.Ints = slices.Clone(m.Floats), slices.Clone(m.Words), slices.Clone(m.Ints)
			return nil
		})
		a, b, c := wire.ErrorClass(errFresh), wire.ErrorClass(errInto), wire.ErrorClass(errLent)
		if a != b || a != c {
			t.Fatalf("Decode fails with class %q (%v), DecodeInto with %q (%v), DecodeFunc with %q (%v)", a, errFresh, b, errInto, c, errLent)
		}
		if errFresh != nil {
			return
		}
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for _, c := range []struct {
			name string
			m    *wire.Message
		}{{"reused", &dirty}, {"lent", &lent}} {
			name, m := c.name, c.m
			if m.Type != fresh.Type || m.Round != fresh.Round || m.Seq != fresh.Seq || m.From != fresh.From {
				t.Fatalf("envelope differs: %s %+v, fresh %+v", name, m, fresh)
			}
			if !slices.EqualFunc(m.Floats, fresh.Floats, sameBits) || !slices.Equal(m.Words, fresh.Words) || !slices.Equal(m.Ints, fresh.Ints) {
				t.Fatalf("vectors differ: %s %+v, fresh %+v", name, m, fresh)
			}
		}
	})
}

// TestCorruptionsAlwaysRejected pins the CRC property the fuzz corpus leans
// on: for every message type and many seeds, payload bit flips of one to
// three bits are always caught. CRC32-IEEE has Hamming distance >= 4 at
// these frame sizes, so detection must be certain, not probabilistic.
func TestCorruptionsAlwaysRejected(t *testing.T) {
	for _, m := range corpusMessages() {
		frame := encodeFrame(t, m)
		for seed := uint64(0); seed < 64; seed++ {
			rng := stats.NewRNG(seed)
			flips := 1 + 2*int(seed%2) // odd, so flips can never cancel to a net no-op
			bad := faultnet.CorruptBits(frame, flips, rng)
			if bytes.Equal(bad, frame) {
				t.Fatalf("type %v seed %d: mutator flipped nothing", m.Type, seed)
			}
			_, err := wire.Decode(bytes.NewReader(bad), fuzzMaxFrame)
			if !errors.Is(err, wire.ErrChecksum) {
				t.Fatalf("type %v seed %d flips %d: corrupted frame decoded with err=%v, want ErrChecksum", m.Type, seed, flips, err)
			}
		}
	}
}

// TestTruncationsAlwaysRejected is the same pin for the truncation mutator:
// a strict prefix of a frame must never decode as a message.
func TestTruncationsAlwaysRejected(t *testing.T) {
	for _, m := range corpusMessages() {
		frame := encodeFrame(t, m)
		for seed := uint64(0); seed < 64; seed++ {
			bad := faultnet.TruncateFrame(frame, stats.NewRNG(seed))
			if len(bad) >= len(frame) {
				t.Fatalf("type %v seed %d: mutator did not shorten the frame", m.Type, seed)
			}
			_, err := wire.Decode(bytes.NewReader(bad), fuzzMaxFrame)
			if !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("type %v seed %d: truncated frame decoded with err=%v, want ErrTruncated", m.Type, seed, err)
			}
		}
	}
}
