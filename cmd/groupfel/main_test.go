package main

import (
	"math"
	"testing"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestCheckRanges: main exits 2 with this message, before any System is
// built, for a flag value no run can start from; each used to panic in the
// partition (α) or in core's config check (dropout).
func TestCheckRanges(t *testing.T) {
	for _, c := range []struct {
		alpha, dropout float64
		want           string
	}{
		{0.5, 0, ""},
		{0.01, 0.9, ""},
		{0.5, 1, "-dropout must be in [0, 1), got 1"},
		{0.5, -0.1, "-dropout must be in [0, 1), got -0.1"},
		{0.5, math.NaN(), "-dropout must be in [0, 1), got NaN"},
		{0, 0, "-alpha must be positive and finite, got 0"},
		{-1, 0, "-alpha must be positive and finite, got -1"},
		{math.NaN(), 0, "-alpha must be positive and finite, got NaN"},
		{math.Inf(1), 0, "-alpha must be positive and finite, got +Inf"},
	} {
		got := ""
		if err := checkRanges(c.alpha, c.dropout); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("checkRanges(%g, %g) = %q, want %q", c.alpha, c.dropout, got, c.want)
		}
	}
}
