//go:build !amd64

package tensor

// hasAVX is false off amd64: accumRows' Go loop is the only row update.
var hasAVX = false

func rowUpdate(d *float64, n int, b *float64, av *float64, off *int, cnt int) {
	panic("tensor: rowUpdate has no implementation on this architecture")
}
