package faultnet

import (
	"repro/internal/stats"
	"repro/internal/wire"
)

// The corruption and truncation draws. The injector's decide draws a fault's
// bit positions or cut from its link's RNG with drawFlips and drawCut, and
// the exported mutators apply the same draws to a copy of a frame: the wire
// fuzz corpus (internal/wire's FuzzDecodeFrame) and faultnet's own
// FuzzFaultConnPassThrough seed themselves from CorruptBits and
// TruncateFrame, so the fuzzers start exactly where chaos runs leave off.

// CorruptBits returns a copy of frame with flips payload bits inverted at
// seeded positions. The header (including the CRC of the original payload)
// is left intact, so a strict decoder must fail the checksum — never panic.
// Frames too short to carry a payload are returned unchanged.
func CorruptBits(frame []byte, flips int, rng *stats.RNG) []byte {
	out := append([]byte(nil), frame...)
	flipBits(out, drawFlips(nil, len(out), flips, rng))
	return out
}

// TruncateFrame returns a seeded strict prefix of frame that always cuts
// inside the payload (or inside the header for header-only frames), the
// shape a crashed sender leaves on the wire.
func TruncateFrame(frame []byte, rng *stats.RNG) []byte {
	if len(frame) <= 1 {
		return nil
	}
	return append([]byte(nil), frame[:drawCut(len(frame), rng)]...)
}

// drawFlips appends flips payload bit positions of a frameLen-byte frame,
// drawn from rng, to dst. A frame with no payload has no bit to flip and
// draws nothing.
func drawFlips(dst []int, frameLen, flips int, rng *stats.RNG) []int {
	payloadBits := (frameLen - wire.HeaderSize) * 8
	if payloadBits <= 0 {
		return dst
	}
	for i := 0; i < flips; i++ {
		dst = append(dst, rng.IntN(payloadBits))
	}
	return dst
}

// drawCut draws how many bytes of a frameLen-byte frame (at least 2) a
// truncation keeps: a strict prefix that ends inside the payload, or inside
// the header when there is no payload. Every frame the injector sees has
// one — a header-checked frame is at least wire.HeaderSize + wire.MinPayload
// = 36 bytes — so its cuts always keep the whole header.
func drawCut(frameLen int, rng *stats.RNG) int {
	lo := wire.HeaderSize
	if frameLen <= lo {
		lo = 1
	}
	return lo + rng.IntN(frameLen-lo)
}

// flipBits inverts the given payload bit positions in a full frame.
func flipBits(frame []byte, bits []int) {
	for _, bit := range bits {
		frame[wire.HeaderSize+bit/8] ^= 1 << (bit % 8)
	}
}
