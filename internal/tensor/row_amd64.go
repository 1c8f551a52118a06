package tensor

import "repro/internal/cpu"

// hasAVX selects accumRows' vector row update: the module's one CPU probe,
// copied so the tests can switch the assembly off.
var hasAVX = cpu.HasAVX

// rowsUpdate is accumRows' update over rows output rows of n contiguous
// columns from d (row_amd64.s): row i is d[i·n+j] = Σ a[i·rs+p·cs]·b[p·n+j]
// over all k terms, from +0 in ascending p, plus bias[j] after the last term
// where bias is not nil. Callers must have checked hasAVX and that every a,
// b, bias and d element the rows address is in range; the routine checks
// nothing.
//
//go:noescape
func rowsUpdate(d *float64, n int, b *float64, a *float64, rs, cs, k, rows int, bias *float64)
