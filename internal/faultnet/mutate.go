package faultnet

import (
	"repro/internal/stats"
	"repro/internal/wire"
)

// Corruption mutators, shared between the injector's write path and the
// wire fuzz corpus (internal/wire's FuzzDecodeFrame seeds itself from these
// so the fuzzer starts exactly where chaos runs leave off).

// CorruptBits returns a copy of frame with flips payload bits inverted at
// seeded positions. The header (including the CRC of the original payload)
// is left intact, so a strict decoder must fail the checksum — never panic.
// Frames too short to carry a payload are returned unchanged.
func CorruptBits(frame []byte, flips int, rng *stats.RNG) []byte {
	out := append([]byte(nil), frame...)
	if len(out) <= wire.HeaderSize || flips <= 0 {
		return out
	}
	payloadBits := (len(out) - wire.HeaderSize) * 8
	for i := 0; i < flips; i++ {
		bit := rng.IntN(payloadBits)
		out[wire.HeaderSize+bit/8] ^= 1 << (bit % 8)
	}
	return out
}

// TruncateFrame returns a seeded strict prefix of frame that always cuts
// inside the payload (or inside the header for header-only frames), the
// shape a crashed sender leaves on the wire.
func TruncateFrame(frame []byte, rng *stats.RNG) []byte {
	if len(frame) <= 1 {
		return nil
	}
	lo := wire.HeaderSize
	if len(frame) <= wire.HeaderSize {
		lo = 1
	}
	cut := lo + rng.IntN(len(frame)-lo)
	return append([]byte(nil), frame[:cut]...)
}

// frameInfo is the injector's view of one encoded frame: enough header and
// payload structure to match rules without a full decode.
type frameInfo struct {
	typ   wire.Type
	round int
	seq   int
}

// parseFrame inspects p and, when it holds exactly one well-formed frame
// (the invariant wire.Encode's single-Write guarantees), returns its info.
// Anything else — partial writes, foreign bytes — is reported unparsed and
// passes through the injector untouched.
func parseFrame(p []byte) (frameInfo, bool) {
	if len(p) < wire.HeaderSize+8 {
		return frameInfo{}, false
	}
	if uint16(p[0])<<8|uint16(p[1]) != wire.Magic || p[2] != wire.Version {
		return frameInfo{}, false
	}
	typ := wire.Type(p[3])
	if !typ.Valid() {
		return frameInfo{}, false
	}
	payLen := int(uint32(p[8])<<24 | uint32(p[9])<<16 | uint32(p[10])<<8 | uint32(p[11]))
	if len(p) != wire.HeaderSize+payLen {
		return frameInfo{}, false
	}
	round := int(uint32(p[4])<<24 | uint32(p[5])<<16 | uint32(p[6])<<8 | uint32(p[7]))
	seq := int(uint32(p[16])<<24 | uint32(p[17])<<16 | uint32(p[18])<<8 | uint32(p[19]))
	return frameInfo{typ: typ, round: round, seq: seq}, true
}
