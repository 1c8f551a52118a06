package tensor

import "repro/internal/cpu"

// hasAVX selects accumRows' vector row update: the module's one CPU probe,
// copied so the tests can switch the assembly off.
var hasAVX = cpu.HasAVX

// rowUpdate is accumRows' row update over n contiguous columns of d
// (row_amd64.s): it writes d[j] = Σ a[p·cs]·b[p·n+j] over all k terms, from
// +0 in ascending p, and reports whether any element it wrote is not finite.
// Callers must have checked hasAVX and that every a[p·cs] and b[p·n+j] is in
// range; the routine checks nothing.
//
//go:noescape
func rowUpdate(d *float64, n int, b *float64, a *float64, cs int, k int) bool
