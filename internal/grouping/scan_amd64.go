package grouping

import "repro/internal/cpu"

// hasAVX selects argminScan's block filter: the module's one CPU probe,
// copied so the tests can switch the assembly off.
var hasAVX = cpu.HasAVX

// scanFilter returns the index of the first of blocks four-candidate blocks
// (classes+3 rows each, from rows) in which any lane satisfies argminScan's
// comparison against (bestSum, bestSumSq), or blocks if none does
// (scan_amd64.s). It decides nothing: argminScan scores the block it names.
// Callers must have checked hasAVX and pass classes ≥ 1, blocks ≥ 1.
//
//go:noescape
func scanFilter(rows *[4]float64, gc *float64, classes, blocks int, acSum, acSumSq, bestSum, bestSumSq float64) int
