// Package bad exercises the //lint:ignore directive machinery itself.
package bad

//lint:ignore float-eq
// want "malformed directive"

//lint:ignore
// want "malformed directive"

// A retired annotation is no directive at all.
//lint:hotpath
// want "unknown directive"

// Suppressed is exempted with a well-formed, reasoned directive.
func Suppressed(a, b float64) bool {
	//lint:ignore float-eq testing that a reasoned directive suppresses the diagnostic
	return a == b
}

// WrongRule names a different rule, so the float-eq diagnostic survives.
func WrongRule(a, b float64) bool {
	//lint:ignore dropped-error wrong rule name does not suppress float-eq
	return a == b // want "floating-point == comparison"
}

// Unsuppressed has no directive at all.
func Unsuppressed(a, b float64) bool {
	return a != b // want "floating-point != comparison"
}
