// Package wire is the binary framing codec of the networked federation
// mode (internal/fednode): a versioned, length-prefixed frame format for
// the Alg. 1 message vocabulary — GlobalModel, GroupAssign, MaskedUpdate,
// ShareReveal, GroupAggregate, GlobalAggregate — plus the serving-layer
// extensions Checkpoint and JobControl (internal/felserve) — carrying float
// parameter vectors, field-element words, and integer id lists between the
// cloud, edge servers, and clients over any io.Reader/io.Writer (TCP in
// production, fednode's in-process MemNetwork in tests, examples and
// benchmarks) or into durable checkpoint files.
//
// Frame layout (big endian):
//
//	magic   uint16  0xFE1D
//	version uint8   1
//	type    uint8   message type (1..8)
//	round   uint32  global round id
//	paylen  uint32  payload byte count
//	crc     uint32  IEEE CRC32 of the payload
//	payload paylen bytes
//
// The payload encodes Seq, From, and the three typed vectors with explicit
// element counts. Decoding is strict: bad magic, unknown version or type,
// an oversized frame, a checksum mismatch, a truncated stream, or a payload
// whose declared vector lengths do not exactly consume it are all distinct
// errors — nothing is silently repaired. EncodedSize is exact, so callers
// can account bytes-on-the-wire without hitting the socket; internal/fednode
// feeds it into the per-message-type fel_wire_frames_total and
// fel_wire_bytes_total counters (internal/metrics), whose sum a clean run's
// tests pin to the transport byte count exactly.
//
// Who owns a decoded Message: Decode hands back a fresh one that is the
// caller's for good, for a frame read once — a registration, an
// acknowledgement. DecodeInto is the same decoder writing into a Message the
// caller already owns, reusing its vectors' capacity, for a reader that
// consumes one frame before it asks for the next: a felserve subscriber
// following a version stream, a fednode client, which trains on each
// broadcast and has its reply on the wire before it reads again, and a
// fednode edge, whose groups train on one global model before it reads the
// next. DecodeFunc lends a pooled Message for the length of one callback,
// taken only once the frame's header has arrived: for a reader that folds or
// copies each frame out as it lands and keeps nothing of it — fednode's edge
// folding a member's masked words into its group's sum, its cloud copying a
// group model into the round's slot — so a reader waiting on a slow peer
// holds no decode storage. A steady stream of equal-size frames then
// allocates nothing model-sized on any of the three. Either way the raw
// payload bytes live only in a pooled scratch buffer, taken after the header
// has arrived and returned before the call does (before DecodeFunc's
// callback runs) — never across the blocking header read, so a reader idle
// between frames pins no buffer, however many hundred of them there are.
// Vectors move four words a step through array pointers in both directions.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
	"sync"
)

// Type identifies one message of the Alg. 1 vocabulary.
type Type uint8

// The message vocabulary of one Group-FEL round trip (paper Fig. 1/Alg. 1).
const (
	// GlobalModel carries model parameters downstream: cloud→edge with the
	// selected group ids, or edge→client as the group-round broadcast.
	GlobalModel Type = 1 + iota
	// GroupAssign carries group membership: node registration (From = id),
	// cloud→edge formation results, and edge→client index assignment.
	GroupAssign
	// MaskedUpdate is a client's secure-aggregation-masked local update
	// (words of Z₂⁶⁴ in Words; plaintext Floats only for singleton groups).
	MaskedUpdate
	// ShareReveal is the dropout-recovery exchange: edge→survivor names the
	// dropped indices, survivor→edge returns its held Shamir shares.
	ShareReveal
	// GroupAggregate is an edge's unmasked group model after K group rounds.
	GroupAggregate
	// GlobalAggregate is the final global model, broadcast at shutdown.
	GlobalAggregate
	// Checkpoint is a durable-state record of the serving layer
	// (internal/felserve): trainer snapshots — round counters, sampling
	// RNG words, global parameters, SCAFFOLD variates — framed for the
	// checkpoint file, never sent over a socket mid-job.
	Checkpoint
	// JobControl is the felserve admission-control exchange: a subscriber's
	// hello naming its job (Seq carries the opcode) and the service's
	// admit/reject verdict.
	JobControl

	typeMax = JobControl
)

// Valid reports whether t is one of the defined message types — the one
// range check the encoder, the decoder and every frame inspector share. The
// types are dense from GlobalModel, so `for t := GlobalModel; t.Valid(); t++`
// visits each of them.
func (t Type) Valid() bool { return t >= GlobalModel && t <= typeMax }

// String returns the wire name of the type.
func (t Type) String() string {
	switch t {
	case GlobalModel:
		return "GlobalModel"
	case GroupAssign:
		return "GroupAssign"
	case MaskedUpdate:
		return "MaskedUpdate"
	case ShareReveal:
		return "ShareReveal"
	case GroupAggregate:
		return "GroupAggregate"
	case GlobalAggregate:
		return "GlobalAggregate"
	case Checkpoint:
		return "Checkpoint"
	case JobControl:
		return "JobControl"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

const (
	// Magic opens every frame.
	Magic uint16 = 0xFE1D
	// Version is the current protocol version.
	Version uint8 = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 16
	// DefaultMaxFrame bounds a frame's payload unless the caller overrides
	// it: 64 MiB covers ~8M float64 parameters.
	DefaultMaxFrame = 64 << 20
)

// Strict decode errors, matchable with errors.Is.
var (
	ErrBadMagic  = errors.New("wire: bad frame magic")
	ErrVersion   = errors.New("wire: unsupported protocol version")
	ErrBadType   = errors.New("wire: unknown message type")
	ErrTooLarge  = errors.New("wire: frame exceeds size limit")
	ErrChecksum  = errors.New("wire: payload checksum mismatch")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrMalformed = errors.New("wire: malformed payload")
)

// Message is one protocol message. Round is the global round t; Seq is the
// group round k (or a secondary counter); From names the subject — a client
// index, group id, or edge id depending on Type. The three vectors carry
// model parameters (Floats), masked words or Shamir shares (Words), and id
// lists (Ints).
type Message struct {
	Type  Type
	Round uint32
	Seq   uint32
	From  int32
	// Floats holds model parameter vectors.
	Floats []float64
	// Words holds masked updates (words of Z₂⁶⁴) or Shamir share pairs
	// (elements of GF(2⁶¹−1)).
	Words []uint64
	// Ints holds id lists (group members, selected groups, dropped indices).
	Ints []int32
}

// EncodedSize returns the exact on-the-wire byte count of the message,
// header included.
func (m *Message) EncodedSize() int {
	return HeaderSize + m.payloadSize()
}

func (m *Message) payloadSize() int {
	// Seq, From and the three counts, then the vectors' elements.
	return MinPayload + 8*len(m.Floats) + 8*len(m.Words) + 4*len(m.Ints)
}

// AppendFrame appends the message's frame — header and payload,
// EncodedSize bytes — to dst and returns the extended slice. It is the one
// encoder: Encode writes its result, and a sender with the same message for
// many peers encodes once into a buffer it reuses and writes those bytes to
// each.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	if !m.Type.Valid() {
		return dst, fmt.Errorf("%w: %d", ErrBadType, uint8(m.Type))
	}
	payLen := m.payloadSize()
	start, end := len(dst), len(dst)+HeaderSize+payLen
	dst = slices.Grow(dst, end-start)[:end]
	// len == cap: each p[off:] below then needs one bound, not two.
	buf := dst[start:end:end]
	p := buf[HeaderSize:]
	binary.BigEndian.PutUint32(p[0:], m.Seq)
	binary.BigEndian.PutUint32(p[4:], uint32(m.From))
	off := 8
	binary.BigEndian.PutUint32(p[off:], uint32(len(m.Floats)))
	off += 4
	putFloats(p[off:off+8*len(m.Floats)], m.Floats)
	off += 8 * len(m.Floats)
	binary.BigEndian.PutUint32(p[off:], uint32(len(m.Words)))
	off += 4
	putWords(p[off:off+8*len(m.Words)], m.Words)
	off += 8 * len(m.Words)
	binary.BigEndian.PutUint32(p[off:], uint32(len(m.Ints)))
	off += 4
	for _, v := range m.Ints {
		binary.BigEndian.PutUint32(p[off:], uint32(v))
		off += 4
	}

	binary.BigEndian.PutUint16(buf[0:], Magic)
	buf[2] = Version
	buf[3] = uint8(m.Type)
	binary.BigEndian.PutUint32(buf[4:], m.Round)
	binary.BigEndian.PutUint32(buf[8:], uint32(payLen))
	binary.BigEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(p))
	return dst, nil
}

// Encode writes the message as one frame, returning the bytes written.
// The write is a single Write call so a frame is never interleaved when the
// caller serializes access to the writer.
func Encode(w io.Writer, m *Message) (int, error) {
	frame, err := AppendFrame(nil, m)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// Decode reads one frame from r into a fresh Message the caller owns
// outright. maxFrame bounds the payload length (<= 0 uses DefaultMaxFrame). A
// clean EOF before any header byte returns io.EOF; every other short read
// returns ErrTruncated.
func Decode(r io.Reader, maxFrame int) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(r, maxFrame, m); err != nil {
		return nil, err
	}
	return m, nil
}

// payloads recycles the raw payload buffers between DecodeInto calls: a
// frame's bytes are dead once its vectors are parsed out of them.
var payloads = sync.Pool{New: func() any { return new([]byte) }}

// DecodeInto is the decoder: it reads one frame from r into m, overwriting
// every field and reusing the capacity of m's vectors — a vector grows only
// when the frame's is longer, and an empty one keeps length 0 (nil in a
// fresh Message). The previous contents of m.Floats, m.Words and m.Ints are
// gone after the call, so a caller that decodes a stream into one Message
// copies out whatever must outlive the next frame. Limits and errors are
// Decode's; after an error m's contents are unspecified and its storage is
// still reusable.
func DecodeInto(r io.Reader, maxFrame int, m *Message) error {
	h, err := readHeader(r, maxFrame)
	if err != nil {
		return err
	}
	return h.readPayload(r, m)
}

// lent holds the Messages DecodeFunc lends.
var lent = sync.Pool{New: func() any { return new(Message) }}

// DecodeFunc reads one frame from r into a Message lent for the call of fn,
// and returns fn's error. The Message comes from a pool once the frame's
// header has arrived and goes back to it when fn returns, so fn copies out
// whatever must outlive the call, and a reader blocked on a silent peer holds
// no decode storage. Limits and errors are Decode's; fn runs only on a frame
// that decoded.
func DecodeFunc(r io.Reader, maxFrame int, fn func(*Message) error) error {
	h, err := readHeader(r, maxFrame)
	if err != nil {
		return err
	}
	m := lent.Get().(*Message)
	defer lent.Put(m)
	if err := h.readPayload(r, m); err != nil {
		return err
	}
	return fn(m)
}

// MinPayload is the smallest payload a frame carries: Seq, From and the
// three vector counts, every vector empty.
const MinPayload = 20

// Header is a frame's checked fixed header, the tree's one reading of the
// header layout: the decoder reads every frame through it, and so do a relay
// matching rules on frames (internal/faultnet) and a walk over frames laid
// end to end (internal/felserve's checkpoint slots).
type Header struct {
	Type  Type
	Round uint32
	// PayLen is the payload byte count, at least MinPayload and at most the
	// limit the header was parsed under.
	PayLen int
	CRC    uint32
}

// ParseHeader checks the first HeaderSize bytes of b as a frame header:
// magic, version, type, and the payload length against maxFrame (<= 0 uses
// DefaultMaxFrame) and MinPayload, with Decode's errors for those bytes. A b
// shorter than a header is ErrTruncated.
func ParseHeader(b []byte, maxFrame int) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: header of %d bytes", ErrTruncated, len(b))
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if got := binary.BigEndian.Uint16(b[0:]); got != Magic {
		return Header{}, fmt.Errorf("%w: 0x%04x", ErrBadMagic, got)
	}
	if b[2] != Version {
		return Header{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, b[2], Version)
	}
	h := Header{
		Type:   Type(b[3]),
		Round:  binary.BigEndian.Uint32(b[4:]),
		PayLen: int(binary.BigEndian.Uint32(b[8:])),
		CRC:    binary.BigEndian.Uint32(b[12:]),
	}
	if !h.Type.Valid() {
		return Header{}, fmt.Errorf("%w: %d", ErrBadType, b[3])
	}
	if h.PayLen > maxFrame {
		return Header{}, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, h.PayLen, maxFrame)
	}
	if h.PayLen < MinPayload {
		return Header{}, fmt.Errorf("%w: payload %d below minimum %d", ErrMalformed, h.PayLen, MinPayload)
	}
	return h, nil
}

// FrameLen is the byte count of the whole frame h opens, header included.
func (h Header) FrameLen() int { return HeaderSize + h.PayLen }

// Seq returns the Seq field of frame, its payload's first word, when frame
// is exactly the whole frame h was parsed from, and false otherwise (always
// for the zero Header, which no frame parses to).
func (h Header) Seq(frame []byte) (uint32, bool) {
	if h.PayLen < MinPayload || len(frame) != h.FrameLen() {
		return 0, false
	}
	return binary.BigEndian.Uint32(frame[HeaderSize:]), true
}

// readHeader reads one frame header from r and checks it (ParseHeader).
func readHeader(r io.Reader, maxFrame int) (Header, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Header{}, io.EOF
		}
		// Wrap (not flatten) the transport error: a net.Error timeout must
		// stay visible through errors.As so callers can tell a straggler
		// deadline from a torn frame.
		return Header{}, fmt.Errorf("%w: header: %w", ErrTruncated, err)
	}
	return ParseHeader(hdr[:], maxFrame)
}

// readPayload reads the payload h announces, checks its CRC and parses it
// into m.
func (h Header) readPayload(r io.Reader, m *Message) error {
	// The scratch is taken only now that a header has arrived: a reader
	// blocked between frames holds nothing but its own Message.
	bp := payloads.Get().(*[]byte)
	defer payloads.Put(bp)
	if cap(*bp) < h.PayLen {
		*bp = make([]byte, h.PayLen)
	}
	p := (*bp)[:h.PayLen]
	if _, err := io.ReadFull(r, p); err != nil {
		return fmt.Errorf("%w: payload: %w", ErrTruncated, err)
	}
	if got := crc32.ChecksumIEEE(p); got != h.CRC {
		return fmt.Errorf("%w: got 0x%08x, want 0x%08x", ErrChecksum, got, h.CRC)
	}
	m.Type = h.Type
	m.Round = h.Round
	return parsePayload(m, p)
}

// parsePayload fills m's Seq, From and vectors from a checksummed payload,
// allocating only where a vector of m is too short for the frame's.
func parsePayload(m *Message, p []byte) error {
	m.Seq = binary.BigEndian.Uint32(p[0:])
	m.From = int32(binary.BigEndian.Uint32(p[4:]))
	n, off, err := vectorLen(p, 8, 8)
	if err != nil {
		return err
	}
	if cap(m.Floats) < n {
		m.Floats = make([]float64, n)
	}
	m.Floats = m.Floats[:n]
	getFloats(m.Floats, p[off:off+8*n])
	off += 8 * n
	n, off, err = vectorLen(p, off, 8)
	if err != nil {
		return err
	}
	if cap(m.Words) < n {
		m.Words = make([]uint64, n)
	}
	m.Words = m.Words[:n]
	getWords(m.Words, p[off:off+8*n])
	off += 8 * n
	n, off, err = vectorLen(p, off, 4)
	if err != nil {
		return err
	}
	if cap(m.Ints) < n {
		m.Ints = make([]int32, n)
	}
	m.Ints = m.Ints[:n]
	for i := range m.Ints {
		m.Ints[i] = int32(binary.BigEndian.Uint32(p[off:]))
		off += 4
	}
	if off != len(p) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrMalformed, len(p)-off)
	}
	return nil
}

// putFloats writes fs big-endian into p (8·len(fs) bytes), four values a
// step through array pointers, so the loop body holds no bounds check; the
// tail goes value by value. putWords, getFloats and getWords are the same
// loop for the other vector and the other direction.
func putFloats(p []byte, fs []float64) {
	for len(fs) >= 4 {
		d, s := (*[32]byte)(p), (*[4]float64)(fs)
		binary.BigEndian.PutUint64(d[0:], math.Float64bits(s[0]))
		binary.BigEndian.PutUint64(d[8:], math.Float64bits(s[1]))
		binary.BigEndian.PutUint64(d[16:], math.Float64bits(s[2]))
		binary.BigEndian.PutUint64(d[24:], math.Float64bits(s[3]))
		p, fs = p[32:], fs[4:]
	}
	for i, f := range fs {
		binary.BigEndian.PutUint64(p[8*i:], math.Float64bits(f))
	}
}

func putWords(p []byte, ws []uint64) {
	for len(ws) >= 4 {
		d, s := (*[32]byte)(p), (*[4]uint64)(ws)
		binary.BigEndian.PutUint64(d[0:], s[0])
		binary.BigEndian.PutUint64(d[8:], s[1])
		binary.BigEndian.PutUint64(d[16:], s[2])
		binary.BigEndian.PutUint64(d[24:], s[3])
		p, ws = p[32:], ws[4:]
	}
	for i, w := range ws {
		binary.BigEndian.PutUint64(p[8*i:], w)
	}
}

func getFloats(fs []float64, p []byte) {
	for len(fs) >= 4 {
		d, s := (*[4]float64)(fs), (*[32]byte)(p)
		d[0] = math.Float64frombits(binary.BigEndian.Uint64(s[0:]))
		d[1] = math.Float64frombits(binary.BigEndian.Uint64(s[8:]))
		d[2] = math.Float64frombits(binary.BigEndian.Uint64(s[16:]))
		d[3] = math.Float64frombits(binary.BigEndian.Uint64(s[24:]))
		fs, p = fs[4:], p[32:]
	}
	for i := range fs {
		fs[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
	}
}

func getWords(ws []uint64, p []byte) {
	for len(ws) >= 4 {
		d, s := (*[4]uint64)(ws), (*[32]byte)(p)
		d[0] = binary.BigEndian.Uint64(s[0:])
		d[1] = binary.BigEndian.Uint64(s[8:])
		d[2] = binary.BigEndian.Uint64(s[16:])
		d[3] = binary.BigEndian.Uint64(s[24:])
		ws, p = ws[4:], p[32:]
	}
	for i := range ws {
		ws[i] = binary.BigEndian.Uint64(p[8*i:])
	}
}

// ErrorClass maps a Decode error to a short stable label, the reason
// dimension of fel_wire_decode_errors_total. A nil error maps to "", a clean
// io.EOF to "eof", and a net.Error timeout to "timeout" even when wrapped in
// ErrTruncated — a straggler deadline is not a torn frame. Everything the
// codec itself diagnoses keeps its sentinel's name; unrecognized transport
// failures fall back to "io".
func ErrorClass(err error) string {
	var ne net.Error
	switch {
	case err == nil:
		return ""
	case errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	case errors.Is(err, ErrBadMagic):
		return "bad_magic"
	case errors.Is(err, ErrVersion):
		return "version"
	case errors.Is(err, ErrBadType):
		return "bad_type"
	case errors.Is(err, ErrTooLarge):
		return "too_large"
	case errors.Is(err, ErrChecksum):
		return "checksum"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, io.EOF):
		return "eof"
	default:
		return "io"
	}
}

// vectorLen reads a vector's element count at p[off:] and checks that
// elemSize·count fits in the remaining payload.
func vectorLen(p []byte, off, elemSize int) (n, next int, err error) {
	if off+4 > len(p) {
		return 0, 0, fmt.Errorf("%w: vector count past payload end", ErrMalformed)
	}
	n = int(binary.BigEndian.Uint32(p[off:]))
	next = off + 4
	if n < 0 || n > (len(p)-next)/elemSize {
		return 0, 0, fmt.Errorf("%w: vector of %d elements overruns %d-byte payload", ErrMalformed, n, len(p))
	}
	return n, next, nil
}
