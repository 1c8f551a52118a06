package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
)

// maskChunk is the number of mask words foldMask draws from the keystream
// at a time: a 512-byte buffer that stays in L1 beside the accumulator it is
// folded into.
const maskChunk = 64

// newMaskPRG keys the mask generator: AES-128 in counter mode (the PRG
// Bonawitz et al. specify) from a zero counter block, the key being the
// 64-bit seed in little-endian order zero-extended to 128 bits. Like
// DeriveSeed's stand-in for the key agreement, a 64-bit key is
// simulation-grade: the stream is what both endpoints of a pairwise mask
// must agree on, not a secrecy claim.
func newMaskPRG(seed uint64) cipher.Stream {
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], seed)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("secagg: AES rejected a 16-byte key: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	return cipher.NewCTR(block, iv[:])
}

// foldMask is the one mask generator: it reads len(acc) little-endian
// 64-bit keystream words from prg and adds each to (or, with subtract,
// removes it from) acc element-wise in Z₂⁶⁴ — one wrapping machine add per
// word, one pass, no mask-sized slice. Every keystream word is already a
// ring element, uniformly distributed, so nothing is reduced. The keystream
// buffer is the only allocation (it escapes through the cipher.Stream
// interface): TestMaskPipelineAllocs pins it at that one object per call
// and guards the path against model-sized buffers.
func foldMask(acc []uint64, prg cipher.Stream, subtract bool) {
	var buf [8 * maskChunk]byte
	var neg uint64 // all ones to subtract: w^neg − neg is −w
	if subtract {
		neg = ^uint64(0)
	}
	for len(acc) > 0 {
		n := min(len(acc), maskChunk)
		ks := buf[:8*n]
		clear(ks)
		prg.XORKeyStream(ks, ks)
		foldWords(acc[:n], ks, neg)
		acc = acc[n:]
	}
}

// foldWords adds the little-endian words of ks (8·len(acc) bytes), each
// negated when neg is all ones, to acc. Eight words a step through array
// pointers, so the loop body holds no bounds check; the tail of a vector
// whose length is not a multiple of eight goes word by word.
func foldWords(acc []uint64, ks []byte, neg uint64) {
	for len(acc) >= 8 {
		a, k := (*[8]uint64)(acc), (*[64]byte)(ks)
		a[0] += (binary.LittleEndian.Uint64(k[0:]) ^ neg) - neg
		a[1] += (binary.LittleEndian.Uint64(k[8:]) ^ neg) - neg
		a[2] += (binary.LittleEndian.Uint64(k[16:]) ^ neg) - neg
		a[3] += (binary.LittleEndian.Uint64(k[24:]) ^ neg) - neg
		a[4] += (binary.LittleEndian.Uint64(k[32:]) ^ neg) - neg
		a[5] += (binary.LittleEndian.Uint64(k[40:]) ^ neg) - neg
		a[6] += (binary.LittleEndian.Uint64(k[48:]) ^ neg) - neg
		a[7] += (binary.LittleEndian.Uint64(k[56:]) ^ neg) - neg
		acc, ks = acc[8:], ks[64:]
	}
	for d := range acc {
		acc[d] += (binary.LittleEndian.Uint64(ks[8*d:]) ^ neg) - neg
	}
}

// MaskStream expands a 64-bit seed into dim words of Z₂⁶⁴: the mask
// generator folded into a zero vector, i.e. the raw little-endian keystream.
// Both endpoints of a pairwise mask derive the same stream from the agreed
// seed, so the masks cancel in the sum.
func MaskStream(seed uint64, dim int) []uint64 {
	out := make([]uint64, dim)
	foldMask(out, newMaskPRG(seed), false)
	return out
}

// DeriveSeed hashes the session seed with the two party identities into a
// shared pairwise seed; the simulation stands in for the Diffie–Hellman key
// agreement round of the real protocol (both orderings agree).
func DeriveSeed(session uint64, a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], session)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(a))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b))
	h := sha256.Sum256(buf[:])
	return binary.LittleEndian.Uint64(h[:8])
}
