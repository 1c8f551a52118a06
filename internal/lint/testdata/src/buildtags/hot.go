// Package buildtags is the loader fixture for build constraints: rowUpdate
// and fast are declared once in kern_amd64.go (by file suffix; rowUpdate
// without a body, as an assembly routine is) and once in kern_other.go (by a
// //go:build line), and the test files repeat the pattern. A loader that
// parses every .go file reports both names as redeclared.
package buildtags

// scale's inner step lives in assembly on one architecture: the body-less
// declaration is outside the module's function index, like the stdlib, and
// must raise no finding.
func scale(d []float64) {
	if fast && len(d) > 0 {
		rowUpdate(&d[0], len(d))
		return
	}
	for i := range d {
		d[i] *= 2
	}
}
