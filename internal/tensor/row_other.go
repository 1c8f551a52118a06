//go:build !amd64

package tensor

// hasAVX is false off amd64: accumRows' Go loop, goRows, is the only row update.
var hasAVX = false

func rowsUpdate(d *float64, n int, b *float64, a *float64, rs, cs, k, rows int, bias *float64) {
	panic("tensor: rowsUpdate has no implementation on this architecture")
}
