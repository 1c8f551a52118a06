package tensor

import "repro/internal/cpu"

// hasAVX selects accumRows' vector row update: the module's one CPU probe,
// copied so the tests can switch the assembly off.
var hasAVX = cpu.HasAVX

// rowUpdate is accumRows' row update over n contiguous columns of d
// (row_amd64.s): it adds av[e]·b[off[e]+j] to d[j] for each of the cnt
// staged terms in turn. Callers must have checked hasAVX and that every
// b[off[e] : off[e]+n] is in range; the routine checks nothing.
//
//go:noescape
func rowUpdate(d *float64, n int, b *float64, av *float64, off *int, cnt int)
