package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// sameMessage compares messages treating nil and empty vectors as equal and
// floats by bit pattern (NaNs must survive the trip).
func sameMessage(a, b *Message) bool {
	if a.Type != b.Type || a.Round != b.Round || a.Seq != b.Seq || a.From != b.From {
		return false
	}
	if len(a.Floats) != len(b.Floats) || len(a.Words) != len(b.Words) || len(a.Ints) != len(b.Ints) {
		return false
	}
	for i := range a.Floats {
		if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
			return false
		}
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			return false
		}
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			return false
		}
	}
	return true
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	n, err := Encode(&buf, m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if n != m.EncodedSize() || n != buf.Len() {
		t.Fatalf("Encode wrote %d bytes, EncodedSize %d, buffer %d", n, m.EncodedSize(), buf.Len())
	}
	got, err := Decode(&buf, 0)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after decode", buf.Len())
	}
	return got
}

// TestQuickRoundTrip is the Encode∘Decode = id property over arbitrary
// messages, including NaN/Inf floats and all six types.
func TestQuickRoundTrip(t *testing.T) {
	prop := func(tpick uint8, round, seq uint32, from int32, floats []float64, words []uint64, ints []int32) bool {
		m := &Message{
			Type:  Type(1 + int(tpick)%int(typeMax)),
			Round: round, Seq: seq, From: from,
			Floats: floats, Words: words, Ints: ints,
		}
		return sameMessage(m, roundTrip(t, m))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecialFloatsSurvive(t *testing.T) {
	m := &Message{Type: GlobalModel, Floats: []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0, math.SmallestNonzeroFloat64}}
	if !sameMessage(m, roundTrip(t, m)) {
		t.Fatal("special float values corrupted by round trip")
	}
}

func encodeValid(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	m := &Message{Type: MaskedUpdate, Round: 3, Seq: 1, From: 7, Words: []uint64{1, 2, 3}, Ints: []int32{-1, 4}}
	if _, err := Encode(&buf, m); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestTruncatedFrames(t *testing.T) {
	frame := encodeValid(t)
	for cut := 1; cut < len(frame); cut++ {
		_, err := Decode(bytes.NewReader(frame[:cut]), 0)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	// A clean EOF at a frame boundary is io.EOF, not corruption.
	if _, err := Decode(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestCorruptedFrames(t *testing.T) {
	base := encodeValid(t)
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), base...)
		mutate(b)
		_, err := Decode(bytes.NewReader(b), 0)
		return err
	}

	if err := corrupt(func(b []byte) { b[0] ^= 0xff }); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: %v", err)
	}
	if err := corrupt(func(b []byte) { b[3] = 99 }); !errors.Is(err, ErrBadType) {
		t.Fatalf("type: %v", err)
	}
	// Any payload bit flip must trip the CRC.
	if err := corrupt(func(b []byte) { b[HeaderSize] ^= 0x01 }); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: %v", err)
	}
	if err := corrupt(func(b []byte) { b[len(b)-1] ^= 0x80 }); !errors.Is(err, ErrChecksum) {
		t.Fatalf("tail flip: %v", err)
	}
	// A declared vector length that overruns the payload is malformed (the
	// CRC is recomputed so the length check itself is exercised).
	if err := corrupt(func(b []byte) {
		binary.BigEndian.PutUint32(b[HeaderSize+12:], 1<<30)
		binary.BigEndian.PutUint32(b[12:], crc32.ChecksumIEEE(b[HeaderSize:]))
	}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("vector overrun: %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	m := &Message{Type: GlobalModel, Floats: make([]float64, 4096)}
	if _, err := Encode(&buf, m); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	_, err := Decode(&buf, 1024)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// The default limit admits the same frame.
	buf.Reset()
	if _, err := Encode(&buf, m); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(&buf, 0); err != nil {
		t.Fatalf("default limit rejected a %d-byte frame: %v", m.EncodedSize(), err)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	frame := encodeValid(t)
	frame[2] = Version + 1
	_, err := Decode(bytes.NewReader(frame), 0)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestEncodeRejectsBadType(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Message{Type: 0}); !errors.Is(err, ErrBadType) {
		t.Fatalf("type 0: %v", err)
	}
	if _, err := Encode(&buf, &Message{Type: typeMax + 1}); !errors.Is(err, ErrBadType) {
		t.Fatalf("type %d: %v", typeMax+1, err)
	}
}

// TestStreamOfFrames decodes several back-to-back frames from one reader,
// the shape a real connection produces.
func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		{Type: GroupAssign, From: 2, Ints: []int32{0, 1, 2}},
		{Type: GlobalModel, Round: 1, Floats: []float64{0.5, -0.25}},
		{Type: GlobalAggregate, Round: 9},
	}
	for _, m := range msgs {
		if _, err := Encode(&buf, m); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	for i, want := range msgs {
		got, err := Decode(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameMessage(want, got) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, want, got)
		}
	}
	if _, err := Decode(&buf, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

// TestServingTypesPinned pins the serving-layer extension types to their
// wire values and names: checkpoint files written today must decode
// forever, so these constants can never be renumbered.
func TestServingTypesPinned(t *testing.T) {
	if Checkpoint != 7 || JobControl != 8 {
		t.Fatalf("serving types renumbered: Checkpoint=%d JobControl=%d, want 7/8", Checkpoint, JobControl)
	}
	if Checkpoint.String() != "Checkpoint" || JobControl.String() != "JobControl" {
		t.Fatalf("serving type names changed: %q, %q", Checkpoint, JobControl)
	}
	m := &Message{Type: Checkpoint, Round: 9, Seq: 1, From: -1,
		Floats: []float64{1.5, -2.25}, Words: []uint64{3, 4, 5}, Ints: []int32{6}}
	if !sameMessage(m, roundTrip(t, m)) {
		t.Fatal("Checkpoint frame corrupted by round trip")
	}
}

// TestDecodeIntoReuse decodes a stream of differently sized frames into one
// Message. Every frame must come out exactly as a fresh Decode of the same
// bytes returns it — lengths exact, no stale tail from the longer frame
// before — with one stated difference: where Decode leaves an empty vector
// nil, the reused Message keeps its storage at length zero, so DeepEqual is
// applied after mapping empty to nil.
func TestDecodeIntoReuse(t *testing.T) {
	long := &Message{Type: GlobalModel, Round: 7, Seq: 1, From: 3,
		Floats: make([]float64, 300), Words: make([]uint64, 40), Ints: make([]int32, 17)}
	for i := range long.Floats {
		long.Floats[i] = float64(i) + 0.5
	}
	for i := range long.Words {
		long.Words[i] = uint64(i) << 40
	}
	for i := range long.Ints {
		long.Ints[i] = int32(-i)
	}
	short := &Message{Type: MaskedUpdate, Round: 8, From: -1,
		Floats: []float64{1.5, -0.25}, Words: []uint64{9}, Ints: []int32{1, 2, 3}}
	empty := &Message{Type: GlobalAggregate, Round: 9}
	frames := make([][]byte, 0, 4)
	for _, m := range []*Message{long, short, empty, long} {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	nilEmpty := func(m Message) Message {
		if len(m.Floats) == 0 {
			m.Floats = nil
		}
		if len(m.Words) == 0 {
			m.Words = nil
		}
		if len(m.Ints) == 0 {
			m.Ints = nil
		}
		return m
	}

	var m Message
	var longStorage *float64
	for i, frame := range frames {
		fresh, err := Decode(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("frame %d: Decode: %v", i, err)
		}
		if err := DecodeInto(bytes.NewReader(frame), 0, &m); err != nil {
			t.Fatalf("frame %d: DecodeInto: %v", i, err)
		}
		if !sameMessage(fresh, &m) {
			t.Fatalf("frame %d: reused Message %+v, fresh Decode %+v", i, m, *fresh)
		}
		if !reflect.DeepEqual(nilEmpty(m), *fresh) {
			t.Fatalf("frame %d: DeepEqual(reused, fresh) is false beyond nil-vs-empty", i)
		}
		switch i {
		case 0:
			longStorage = &m.Floats[0]
		case 3:
			if &m.Floats[0] != longStorage {
				t.Error("the second long frame did not reuse the first one's storage")
			}
		}
	}
	if fresh, err := Decode(bytes.NewReader(frames[2]), 0); err != nil || fresh.Floats != nil || fresh.Words != nil || fresh.Ints != nil {
		t.Errorf("a fresh Decode of an all-empty frame must leave nil vectors: %+v, err %v", fresh, err)
	}

	// Steady state: equal-size frames into one Message allocate at most the
	// 16-byte header (it escapes through the io.Reader call).
	stream := bytes.NewReader(nil)
	if allocs := testing.AllocsPerRun(50, func() {
		stream.Reset(frames[0])
		if err := DecodeInto(stream, 0, &m); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("DecodeInto allocates %.1f objects per equal-size frame, want at most 1", allocs)
	}

	// A valid header over a short payload is ErrTruncated, and the scratch
	// it borrowed goes back: the next frame decodes as before.
	if err := DecodeInto(bytes.NewReader(frames[0][:HeaderSize+100]), 0, &m); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short payload: err = %v, want ErrTruncated", err)
	}
	if err := DecodeInto(bytes.NewReader(frames[1]), 0, &m); err != nil || !sameMessage(short, &m) {
		t.Fatalf("decode after a truncated frame: %+v, err %v", m, err)
	}
}

// TestDecodeFunc: the lent Message carries the frame into the callback, the
// callback's error is DecodeFunc's, and a frame that fails to decode never
// reaches the callback. (Its steady-state allocation is held by fednode's
// TestJobRoundSteadyState, whose edge and cloud decode through it.)
func TestDecodeFunc(t *testing.T) {
	m := &Message{Type: MaskedUpdate, Round: 4, Seq: 1, From: 2, Words: make([]uint64, 301)}
	for i := range m.Words {
		m.Words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	frame, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	for range 3 { // the second and third calls take a pooled Message
		if err := DecodeFunc(bytes.NewReader(frame), 0, func(got *Message) error {
			if !sameMessage(got, m) {
				t.Errorf("lent Message %+v, want %+v", got, m)
			}
			return stop
		}); err != stop {
			t.Errorf("DecodeFunc returned %v, want the callback's error", err)
		}
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 1
	if err := DecodeFunc(bytes.NewReader(bad), 0, func(*Message) error {
		t.Error("the callback ran on a frame that failed its checksum")
		return nil
	}); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupt frame: err = %v, want ErrChecksum", err)
	}
}
