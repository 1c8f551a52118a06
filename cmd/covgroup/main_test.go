package main

import (
	"math"
	"testing"
)

// TestCheckRanges: main exits 2 with this message for a flag value outside
// its range, before reading any input.
func TestCheckRanges(t *testing.T) {
	for _, c := range []struct {
		minGS, targetGS int
		maxCoV          float64
		want            string
	}{
		{5, 0, 0.5, ""},
		{0, 0, 0, ""},
		{2, 4, 1e9, ""},
		{-1, 0, 0.5, "-mings must be non-negative, got -1"},
		{5, -2, 0.5, "-targetgs must be non-negative (0 = mings), got -2"},
		{5, -1, 0.5, "-targetgs must be non-negative (0 = mings), got -1"},
		{5, 0, -1, "-maxcov must be non-negative and finite (0 disables), got -1"},
		{5, 0, math.NaN(), "-maxcov must be non-negative and finite (0 disables), got NaN"},
		{5, 0, math.Inf(1), "-maxcov must be non-negative and finite (0 disables), got +Inf"},
		{-1, -2, -1, "-mings must be non-negative, got -1"},
	} {
		got := ""
		if err := checkRanges(c.minGS, c.targetGS, c.maxCoV); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("checkRanges(%d, %d, %g) = %q, want %q", c.minGS, c.targetGS, c.maxCoV, got, c.want)
		}
	}
}
