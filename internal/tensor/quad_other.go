//go:build !amd64

package tensor

// hasAVX is false off amd64: accumRows' Go loop is the only row update.
var hasAVX = false

func quadUpdate(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64) {
	panic("tensor: quadUpdate has no implementation on this architecture")
}
