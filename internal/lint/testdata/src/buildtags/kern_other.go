//go:build !amd64

package buildtags

var fast = false

func rowUpdate(d *float64, n int) {
	panic("buildtags: rowUpdate has no implementation on this architecture")
}
