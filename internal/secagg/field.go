// Package secagg implements a compact Bonawitz-style secure aggregation
// substrate: clients submit fixed-point-quantized model updates blinded by
// pairwise-cancelling PRG masks plus a personal mask, with Shamir secret
// sharing providing dropout recovery. The server learns only the sum of the
// surviving clients' updates.
//
// Two algebraic structures, each where it is needed. Masked vectors live in
// Z₂⁶⁴ (Bonawitz et al. mask in Z_R for any R): a keystream word is a
// uniform ring element as read, folding a mask is one machine add, and the
// masked sum wraps for free. Shamir sharing needs division, so its secrets
// and shares live in the prime field GF(2⁶¹−1) below.
//
// This is the group operation whose cost the paper measures in Fig. 8 and
// models as quadratic in group size (each client exchanges masks/shares
// with every other client). The session records operation counts so the
// experiment harness can verify the quadratic shape empirically.
package secagg

import "math/bits"

// P is the Shamir field's modulus, the Mersenne prime 2⁶¹−1. Mersenne
// reduction keeps multiplication branch-light and fast.
const P uint64 = (1 << 61) - 1

// Reduce maps x into [0, P).
func Reduce(x uint64) uint64 {
	x = (x >> 61) + (x & P)
	if x >= P {
		x -= P
	}
	return x
}

// Add returns a+b mod P. Inputs must already be reduced. The wrap is a
// sign mask, not a branch: the operands are Shamir polynomial values of
// secrets, and arithmetic on a secret should not branch on it.
func Add(a, b uint64) uint64 {
	s := a + b - P // negative (top bit set) exactly when a+b < P
	return s + P&uint64(int64(s)>>63)
}

// Sub returns a−b mod P. Inputs must already be reduced. Branch-free for
// the same reason as Add.
func Sub(a, b uint64) uint64 {
	d := a - b // negative (top bit set) exactly when a < b
	return d + P&uint64(int64(d)>>63)
}

// Mul returns a·b mod P using 128-bit intermediate arithmetic and two
// Mersenne folds.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a,b < 2^61 so the product < 2^122: hi < 2^58.
	// x = hi·2^64 + lo = hi·8·2^61 + lo ≡ hi·8 + lo (mod 2^61−1), after
	// folding lo's top bits too.
	r := (lo & P) + (lo >> 61) + (hi << 3)
	return Reduce(r)
}

// Pow returns a^e mod P by square-and-multiply.
func Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a mod P (Fermat). a must be
// nonzero mod P.
func Inv(a uint64) uint64 {
	if Reduce(a) == 0 {
		panic("secagg: inverse of zero")
	}
	return Pow(a, P-2)
}

// Neg returns −a mod P.
func Neg(a uint64) uint64 { return Sub(0, Reduce(a)) }
