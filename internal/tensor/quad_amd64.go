package tensor

import "repro/internal/cpu"

// hasAVX selects accumRows' vector row update: the module's one CPU probe,
// copied so the tests can switch the assembly off.
var hasAVX = cpu.HasAVX

// quadUpdate is accumRows' four-term row update over n contiguous columns
// (quad_amd64.s); callers must have checked hasAVX.
//
//go:noescape
func quadUpdate(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
