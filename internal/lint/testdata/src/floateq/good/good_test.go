package good

import "testing"

// Test files are exempt: a bit-for-bit determinism assertion is an exact
// compare, and needs no directive.
func TestExactCompareIsExempt(t *testing.T) {
	a, b := 0.5, 0.5
	if a != b {
		t.Fatal("identical literals must be bit-identical")
	}
}
