package grouping

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/stats"
)

// referenceScan is argminScan one candidate at a time, the loop Form ran
// inline before PR 19: the oracle TestArgminScanMatchesReference holds the
// four-candidate kernel to, bit for bit.
func referenceScan(hists []float64, pool []poolClient, gc []float64, acSum, acSumSq float64) (int, float64, float64) {
	classes := len(gc)
	best, bestSum, bestSumSq := -1, 0.0, math.Inf(1)
	for ci := range pool {
		cross := 0.0
		for y, n := range hists[ci*classes : (ci+1)*classes] {
			cross += gc[y] * n
		}
		sum := acSum + pool[ci].cSum
		sumSq := acSumSq + 2*cross + pool[ci].cSq
		if best == -1 || sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci, sum, sumSq
		}
	}
	return best, bestSum, bestSumSq
}

// packRows builds the pool and packed row matrix Form scans, from rows.
func packRows(rows [][]float64, classes int) ([]poolClient, []float64) {
	pool := make([]poolClient, len(rows))
	hists := make([]float64, len(rows)*classes)
	for i, row := range rows {
		copy(hists[i*classes:], row)
		for _, n := range row {
			pool[i].cSum += n
			pool[i].cSq += n * n
		}
	}
	return pool, hists
}

// TestArgminScanMatchesReference compares argminScan with referenceScan by
// Float64bits over every remainder of the four-candidate pass (pool sizes
// 0–13), class counts on both sides of anything a kernel might special-case,
// and the inputs its rules exist for: fractional histograms (rounding makes
// the result depend on the per-candidate summation order, so equality proves
// the order was kept), zero-total rows first, in the middle and everywhere
// (the best == -1 guard), and exact duplicates (the earliest index wins).
func TestArgminScanMatchesReference(t *testing.T) {
	rng := stats.NewRNG(19)
	draws := []struct {
		kind string
		draw func() float64
	}{
		{"integer", func() float64 { return float64(rng.IntN(40)) }},
		{"fractional", func() float64 { return rng.Float64() * 40 / 3 }},
	}
	zeroRows := []struct {
		where  string
		isZero func(i, n int) bool
	}{
		{"none", func(i, n int) bool { return false }},
		{"first", func(i, n int) bool { return i == 0 }},
		{"middle", func(i, n int) bool { return i == n/2 }},
		{"all", func(i, n int) bool { return true }},
	}
	for _, classes := range []int{1, 2, 3, 7, 10, 35} {
		for n := 0; n <= 13; n++ {
			for _, d := range draws {
				for _, z := range zeroRows {
					for _, v := range []struct{ dup, emptyGroup bool }{{false, false}, {true, false}, {false, true}} {
						rows := make([][]float64, n)
						for i := range rows {
							rows[i] = make([]float64, classes)
							switch {
							case z.isZero(i, n):
							case v.dup && i >= 2:
								// Copies of rows 0 and 1, alternating: ties at
								// every distance, within a pass and across two.
								copy(rows[i], rows[i%2])
							default:
								for y := range rows[i] {
									rows[i][y] = d.draw()
								}
							}
						}
						pool, hists := packRows(rows, classes)
						// An empty group is what Form scans for after seeding
						// with a zero-total client — the one state in which a
						// zero-total candidate compares as NaN and only the
						// guard takes it.
						gc := make([]float64, classes)
						acSum, acSumSq := 0.0, 0.0
						for y := range gc {
							if !v.emptyGroup {
								gc[y] = d.draw()
							}
							acSum += gc[y]
							acSumSq += gc[y] * gc[y]
						}
						// A longer backing matrix, as in Form once the pool
						// has shrunk: the scan must stop at len(pool) rows.
						hists = append(hists, make([]float64, 2*classes)...)
						wb, ws, wq := referenceScan(hists, pool, gc, acSum, acSumSq)
						gb, gs, gq := argminScan(hists, pool, gc, acSum, acSumSq)
						if gb != wb || math.Float64bits(gs) != math.Float64bits(ws) || math.Float64bits(gq) != math.Float64bits(wq) {
							t.Fatalf("classes=%d n=%d %s zero=%s %+v: argminScan = (%d, %v, %v), reference (%d, %v, %v)",
								classes, n, d.kind, z.where, v, gb, gs, gq, wb, ws, wq)
						}
						if n > 0 && gb < 0 {
							t.Fatalf("classes=%d n=%d: no candidate chosen from a non-empty pool", classes, n)
						}
					}
				}
			}
		}
	}
}

// candidateEvals replays how many candidates Alg. 2 scored while forming
// groups (formed without MergeLeftover, so membership is as grown) from a
// population of n: one scan of the remaining pool per admitted member after
// the seed, plus the scan that found no improving candidate when a group
// was finalized above MaxCoV with clients still in the pool.
func candidateEvals(groups []*Group, n int, maxCoV float64) int {
	pool, evals := n, 0
	for _, g := range groups {
		pool-- // the seed client is drawn, not scanned for
		for k := 1; k < g.Size(); k++ {
			evals += pool
			pool--
		}
		if pool > 0 && g.CoV() > maxCoV {
			evals += pool
		}
	}
	return evals
}

// BenchmarkCoVGroupingForm times one edge's formation on one goroutine at
// the two shapes the benchmark forms — a pop-regroup edge (1 250 flyweight
// clients) and a train-paper edge (100 clients) — and reports the cost per
// candidate evaluation, the unit Alg. 2's O(|K|²·|Y|) is made of.
func BenchmarkCoVGroupingForm(b *testing.B) {
	for _, shape := range []struct {
		name    string
		clients []*data.Client
	}{
		{"pop-regroup-edge", popRegroupEdge(1250)},
		{"train-paper-edge", trainPaperEdge()},
	} {
		b.Run(shape.name, func(b *testing.B) {
			grown := benchGrouping
			grown.MergeLeftover = false
			evals := candidateEvals(grown.Form(shape.clients, 10, 0, 0, stats.NewRNG(1)), len(shape.clients), grown.MaxCoV)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGrouping.Form(shape.clients, 10, 0, 0, stats.NewRNG(1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(evals), "ns/candidate")
		})
	}
}
