package buildtags

import "testing"

func TestScale(t *testing.T) {
	d := []float64{1, 2}
	scale(d)
	t.Log(testedPath, d)
}
