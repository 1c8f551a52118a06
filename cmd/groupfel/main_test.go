package main

import (
	"math"
	"testing"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestCheckRanges: main exits 2 with this message, before any System is
// built, for a flag value no run can start from; each used to panic in the
// partition (α) or in core's config check (dropout), or to train the scale
// default unannounced (a negative -rounds or -budget).
func TestCheckRanges(t *testing.T) {
	for _, c := range []struct {
		alpha, dropout float64
		rounds         int
		budget         float64
		want           string
	}{
		{0.5, 0, 0, 0, ""},
		{0.01, 0.9, 20, 1e6, ""},
		{0.5, 1, 0, 0, "-dropout must be in [0, 1), got 1"},
		{0.5, -0.1, 0, 0, "-dropout must be in [0, 1), got -0.1"},
		{0.5, math.NaN(), 0, 0, "-dropout must be in [0, 1), got NaN"},
		{0, 0, 0, 0, "-alpha must be positive and finite, got 0"},
		{-1, 0, 0, 0, "-alpha must be positive and finite, got -1"},
		{math.NaN(), 0, 0, 0, "-alpha must be positive and finite, got NaN"},
		{math.Inf(1), 0, 0, 0, "-alpha must be positive and finite, got +Inf"},
		{0.5, 0, -5, 0, "-rounds must be non-negative (0 = scale default), got -5"},
		{0.5, 0, 0, -3, "-budget must be non-negative (0 = scale default), got -3"},
		{0.5, 0, 0, math.NaN(), "-budget must be non-negative (0 = scale default), got NaN"},
		{0.5, 0, -5, -3, "-rounds must be non-negative (0 = scale default), got -5"},
	} {
		got := ""
		if err := checkRanges(c.alpha, c.dropout, c.rounds, c.budget); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("checkRanges(%g, %g, %d, %g) = %q, want %q", c.alpha, c.dropout, c.rounds, c.budget, got, c.want)
		}
	}
}
