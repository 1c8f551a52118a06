package grouping

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/stats"
)

// referenceScan is argminScan over row-major histograms one candidate at a
// time, the loop Form ran inline before PR 19: the oracle
// TestArgminScanMatchesReference holds the lane-pool scan to, bit for bit.
func referenceScan(rows [][]float64, gc []float64, acSum, acSumSq float64) (int, float64, float64) {
	best, bestSum, bestSumSq := -1, 0.0, math.Inf(1)
	for ci, row := range rows {
		cross, cSum, cSq := 0.0, 0.0, 0.0
		for y, n := range row {
			cross = float64(gc[y]*n) + cross
			cSum += n
			cSq += float64(n * n)
		}
		sum := acSum + cSum
		sumSq := acSumSq + float64(2*cross) + cSq
		if best == -1 || sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci, sum, sumSq
		}
	}
	return best, bestSum, bestSumSq
}

// rowClients wraps histogram rows as clients, for packPool.
func rowClients(rows [][]float64) []*data.Client {
	clients := make([]*data.Client, len(rows))
	for i, row := range rows {
		clients[i] = &data.Client{ID: i, Counts: row}
	}
	return clients
}

// portably runs check as shipped — argminScan with its AVX filter where the
// host has one — and again with the filter switched off, so the Go loop every
// other build runs stays under test on an AVX host. The subtests share hasAVX
// and so do not run in parallel.
func portably(t *testing.T, check func(t *testing.T)) {
	t.Run("shipped", check)
	t.Run("portable", func(t *testing.T) {
		if !hasAVX {
			t.Skip("no filter on this host: the shipped run was the Go loop")
		}
		hasAVX = false
		t.Cleanup(func() { hasAVX = true })
		check(t)
	})
}

// TestArgminScanMatchesReference compares argminScan over a packed lanePool
// with referenceScan over the same rows by Float64bits, for pool sizes 0–41
// (every remainder of the four-candidate pass, the empty pool and the pools
// of one block or less that must never reach the filter), class counts on
// both sides of anything a kernel might special-case, zero included, and the
// inputs its rules exist for: fractional histograms (rounding makes the
// result depend on the per-candidate summation order, so equality proves the
// order was kept), zero-total rows first, in the middle and everywhere (the
// best == -1 guard), and exact duplicates (the earliest index wins). The
// lanes past the pool — the rest of its last block and the blocks behind it,
// as in Form once the pool has shrunk — hold NaN, -Inf and the histogram that
// would win outright: the scan must not read them.
func TestArgminScanMatchesReference(t *testing.T) { portably(t, checkArgminScan) }

func checkArgminScan(t *testing.T) {
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
	for _, classes := range []int{0, 1, 2, 3, 7, 10, 35} {
		for n := 0; n <= 41; n++ {
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
						// Seven stale candidates behind the pool: whatever n
						// mod 4 is, they fill its last block and one more.
						stale := make([][]float64, 7)
						for i := range stale {
							stale[i] = make([]float64, classes)
							for y := range stale[i] {
								// 50 − g_y levels the group: CoV 0, the minimum.
								stale[i][y] = []float64{50 - gc[y], math.NaN(), math.Inf(-1)}[i%3]
							}
						}
						pool := packPool(rowClients(append(rows[:n:n], stale...)), classes)
						wb, ws, wq := referenceScan(rows, gc, acSum, acSumSq)
						gb, gs, gq := argminScan(pool.rows, n, gc, acSum, acSumSq)
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

// TestArgminScanZeroAllocs holds the scan nearly all of a formation's time is
// spent in to no heap allocation per call, as shipped (through scanFilter on
// an AVX host) and as the Go loop alone, over a pop-regroup edge: enough
// blocks that the filter skips most of them.
func TestArgminScanZeroAllocs(t *testing.T) {
	clients := popRegroupEdge(1250)
	pool := packPool(clients, 10)
	gc := make([]float64, 10)
	copy(gc, clients[0].Counts)
	acSum, acSumSq := 0.0, 0.0
	for _, g := range gc {
		acSum += g
		acSumSq += g * g
	}
	portably(t, func(t *testing.T) {
		if allocs := testing.AllocsPerRun(20, func() {
			argminScan(pool.rows, len(clients), gc, acSum, acSumSq)
		}); allocs != 0 {
			t.Fatalf("argminScan allocates %.1f times per scan of %d candidates, want 0", allocs, len(clients))
		}
	})
}

// checkLanes fails unless every live candidate's lanes hold its client's
// histogram (zero-padded to the pool's width), Σc, Σc² and n_i.
func checkLanes(t *testing.T, p *lanePool, when string) {
	t.Helper()
	for ci, c := range p.clients {
		blk, l := p.block(ci)
		var sum, sq float64
		for y := 0; y < p.classes; y++ {
			want := 0.0
			if y < len(c.Counts) {
				want = c.Counts[y]
			}
			sum += want
			sq += want * want
			if math.Float64bits(blk[y][l]) != math.Float64bits(want) {
				t.Fatalf("%s: candidate %d (client %d) class %d lane holds %v, histogram %v", when, ci, c.ID, y, blk[y][l], want)
			}
		}
		got := [3]float64{blk[p.classes][l], blk[p.classes+1][l], blk[p.classes+2][l]}
		if want := [3]float64{sum, sq, float64(c.N)}; got != want {
			t.Fatalf("%s: candidate %d (client %d) carries (Σc, Σc², n) = %v, want %v", when, ci, c.ID, got, want)
		}
	}
}

// TestLanePoolSwapDelete: through any seeded sequence of removals down to the
// empty pool, every live candidate's lanes still describe its own client —
// the histogram narrower than the pool included.
func TestLanePoolSwapDelete(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := stats.NewRNG(seed + 700)
		classes := 1 + rng.IntN(11)
		clients := randomClients(rng.IntN(70), classes, rng)
		if len(clients) > 0 {
			c := clients[rng.IntN(len(clients))]
			c.Counts = c.Counts[:rng.IntN(classes)]
		}
		pool := packPool(clients, classes)
		checkLanes(t, &pool, "packed")
		for len(pool.clients) > 0 {
			pool.remove(rng.IntN(len(pool.clients)))
			checkLanes(t, &pool, "after a removal")
		}
	}
}

// TestCoVGroupingGroupsMatchNewGroup: Form fills a group's histogram and
// sample total from the pool's lanes, never from the clients; they must be
// the ones NewGroup sums from the same members in the same order.
func TestCoVGroupingGroupsMatchNewGroup(t *testing.T) {
	check := func(groups []*Group, classes int) {
		for _, g := range groups {
			want := NewGroup(g.ID, g.Edge, g.Clients, classes)
			if g.NumSamples() != want.NumSamples() {
				t.Fatalf("group %d: NumSamples %d, NewGroup over its members %d", g.ID, g.NumSamples(), want.NumSamples())
			}
			for y := range want.Counts {
				if math.Float64bits(g.Counts[y]) != math.Float64bits(want.Counts[y]) {
					t.Fatalf("group %d class %d: count %v, NewGroup over its members %v", g.ID, y, g.Counts[y], want.Counts[y])
				}
			}
		}
	}
	propCases(func(t *testing.T, seed uint64, clients []*data.Client, classes int, alg CoVGrouping) {
		check(alg.Form(clients, classes, 0, 0, stats.NewRNG(seed+5000)), classes)
	})(t)
	check(benchGrouping.Form(popRegroupEdge(1250), 10, 0, 0, stats.NewRNG(1)), 10)
}

// TestPackPoolRejectsWideHistogram: a histogram wider than the formation
// would overwrite its block's Σc rows; it is refused at pack time by client
// ID and both widths. A narrower one is zero-padded.
func TestPackPoolRejectsWideHistogram(t *testing.T) {
	clients := randomClients(9, 4, stats.NewRNG(3))
	clients[6] = &data.Client{ID: 77, N: 5, Counts: []float64{1, 1, 1, 1, 1}}
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"grouping: ", "client 77", "5-class", "4 classes"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not contain %q", msg, want)
			}
		}
	}()
	benchGrouping.Form(clients, 4, 0, 0, stats.NewRNG(1))
	t.Error("Form accepted a 5-class histogram in a 4-class formation")
}

// filterGo is scanFilter's contract in Go: the first of blocks blocks in
// which any lane passes argminScan's comparison, evaluated as argminScan
// evaluates it, or blocks.
func filterGo(rows [][4]float64, gc []float64, blocks int, acSum, acSumSq, bestSum, bestSumSq float64) int {
	classes := len(gc)
	for b := 0; b < blocks; b++ {
		blk := rows[b*(classes+3):][:classes+3]
		for l := 0; l < 4; l++ {
			cross := 0.0
			for y, g := range gc {
				cross = float64(g*blk[y][l]) + cross
			}
			sum := acSum + blk[classes][l]
			sumSq := acSumSq + float64(2*cross) + blk[classes+1][l]
			if sumSq*bestSum*bestSum < bestSumSq*sum*sum {
				return b
			}
		}
	}
	return blocks
}

// checkScanFilter fails unless scanFilter over the first blocks blocks of
// rows returns what filterGo does.
func checkScanFilter(t *testing.T, rows [][4]float64, gc []float64, blocks int, sums [4]float64) {
	t.Helper()
	want := filterGo(rows, gc, blocks, sums[0], sums[1], sums[2], sums[3])
	if got := scanFilter(&rows[0], &gc[0], len(gc), blocks, sums[0], sums[1], sums[2], sums[3]); got != want {
		t.Fatalf("classes=%d blocks=%d sums=%v: scanFilter = %d, the Go predicate first holds in block %d", len(gc), blocks, sums, got, want)
	}
}

// checkScanFilterOn fills the filter's operands from next — four running
// sums, a group histogram, then the blocks lane by lane, one block past the
// ones the filter is given — and checks it.
func checkScanFilterOn(t *testing.T, classes, blocks int, next func() float64) {
	t.Helper()
	sums := [4]float64{next(), next(), next(), next()}
	gc := make([]float64, classes)
	for y := range gc {
		gc[y] = next()
	}
	rows := make([][4]float64, (blocks+1)*(classes+3))
	for r := range rows {
		for l := range rows[r] {
			rows[r][l] = next()
		}
	}
	checkScanFilter(t, rows, gc, blocks, sums)
}

// filterCorners are the values an argmin comparison can go wrong on.
var filterCorners = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, math.MaxFloat64, 1e-300, 1e300, 25,
}

// TestScanFilterMatchesGo drives the assembly routine directly, at every
// class count to 12 and block count to 9. First over operands that are
// corner values four times in ten (most blocks then compare unordered or
// equal, so the walk reaches the later blocks and the not-found return),
// rarely, and never. Then over the pool the filter meets at the end of a
// scan: every lane an exact copy of the best candidate, fractional, so every
// comparison is a tie that one differently rounded product would break —
// none found — and the same pool with one lane of one block, or of the block
// past the end, replaced by the candidate that levels the group outright.
func TestScanFilterMatchesGo(t *testing.T) {
	if !hasAVX {
		t.Skip("hasAVX is false: no assembly filter on this host")
	}
	rng := stats.NewRNG(24)
	for classes := 1; classes <= 12; classes++ {
		for blocks := 1; blocks <= 9; blocks++ {
			for _, cornerRate := range []float64{0.4, 0.02, 0} {
				for rep := 0; rep < 20; rep++ {
					checkScanFilterOn(t, classes, blocks, func() float64 {
						if rng.Float64() < cornerRate {
							return filterCorners[rng.IntN(len(filterCorners))]
						}
						return float64(rng.IntN(40))
					})
				}
			}
			for rep := 0; rep < 20; rep++ {
				gc, cand := make([]float64, classes), make([]float64, classes)
				for y := range gc {
					gc[y], cand[y] = rng.Float64()*40/3, rng.Float64()*40/3
				}
				lanes := make([][]float64, 4*(blocks+1))
				for i := range lanes {
					lanes[i] = cand
				}
				var sums [4]float64
				for _, g := range gc {
					sums[0] += g
					sums[1] += g * g
				}
				_, sums[2], sums[3] = referenceScan(lanes[:1], gc, sums[0], sums[1])
				checkScanFilter(t, packPool(rowClients(lanes), classes).rows, gc, blocks, sums)
				winner := make([]float64, classes)
				for y := range winner {
					winner[y] = 50 - gc[y]
				}
				lanes[rng.IntN(len(lanes))] = winner
				checkScanFilter(t, packPool(rowClients(lanes), classes).rows, gc, blocks, sums)
			}
		}
	}
}

// FuzzScanFilter is the same differential from raw bytes: a class count, a
// block count, and operand bit patterns read eight bytes at a time (the input
// repeats when it runs out), so signalling NaNs and arbitrary payloads get in.
func FuzzScanFilter(f *testing.F) {
	if !hasAVX {
		f.Skip("hasAVX is false: no assembly filter on this host")
	}
	var corners []byte
	for _, c := range filterCorners {
		corners = binary.LittleEndian.AppendUint64(corners, math.Float64bits(c))
	}
	f.Add(uint8(10), uint8(8), corners)
	f.Add(uint8(1), uint8(1), corners[8:])
	f.Add(uint8(3), uint8(5), corners[:7*8])
	f.Add(uint8(7), uint8(2), corners[13*8:]) // every operand 25: all ties, nothing found
	f.Fuzz(func(t *testing.T, classes, blocks uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		pos := 0
		next := func() float64 {
			var w [8]byte
			for i := range w {
				w[i] = data[(pos+i)%len(data)]
			}
			pos += 8
			return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		checkScanFilterOn(t, 1+int(classes)%12, 1+int(blocks)%9, next)
	})
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
// candidate evaluation, the unit Alg. 2's O(|K|²·|Y|) is made of. Each shape
// runs as shipped and, where that means the AVX filter, again with the filter
// off: the Go loop alone is what every other architecture runs.
func BenchmarkCoVGroupingForm(b *testing.B) {
	for _, shape := range []struct {
		name    string
		clients []*data.Client
	}{
		{"pop-regroup-edge", popRegroupEdge(1250)},
		{"train-paper-edge", trainPaperEdge()},
	} {
		grown := benchGrouping
		grown.MergeLeftover = false
		evals := candidateEvals(grown.Form(shape.clients, 10, 0, 0, stats.NewRNG(1)), len(shape.clients), grown.MaxCoV)
		form := func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGrouping.Form(shape.clients, 10, 0, 0, stats.NewRNG(1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(evals), "ns/candidate")
		}
		b.Run(shape.name, form)
		if hasAVX {
			b.Run(shape.name+"-portable", func(b *testing.B) {
				hasAVX = false
				defer func() { hasAVX = true }()
				form(b)
			})
		}
	}
}
