package grouping

import (
	"math"

	"repro/internal/data"
	"repro/internal/stats"
)

// CoVGrouping is the paper's greedy group formation (Alg. 2). Groups are
// built one at a time: a random seed client starts the group, then the
// client whose addition minimizes the group CoV is added until both the
// MinGS and MaxCoV requirements hold (or no addition improves the CoV and
// the size constraint is already met).
//
// GammaWeight optionally mixes the γ criterion of the paper's future-work
// section into the score: score = CoV(labels) + GammaWeight·CoV(sample
// counts), so groups are also balanced in per-client data volume. Zero
// (the default) reproduces Alg. 2 exactly.
type CoVGrouping struct {
	Config
	GammaWeight float64
}

// Name returns "CoVG".
func (CoVGrouping) Name() string { return "CoVG" }

// poolClient is a pool entry with the candidate-invariant scalars
// precomputed once per Form call: the histogram total Σ_y c_y, the
// histogram self-product Σ_y c_y², and the sample count n_i as a float.
// The histogram itself lives in the pool's contiguous row matrix (see
// Form), not behind the client pointer, so the greedy scan streams
// sequential memory instead of chasing a pointer per candidate.
type poolClient struct {
	c         *data.Client
	cSum, cSq float64
	n         float64
}

// covAccum carries the running sums that let one candidate addition be
// scored in O(|Y|) flops with no histogram copies: for the group label
// histogram it tracks Σ_y g_y and Σ_y g_y², and for the per-client sample
// counts Σ n_i and Σ n_i². The post-addition sums follow algebraically —
// Σ (g_y+c_y)² = Σ g_y² + 2·(g·c) + Σ c_y² — so only the dot product g·c
// touches the histogram; everything else about the candidate is a
// precomputed poolClient scalar. This is what gets Alg. 2 over a million
// clients in seconds: scoring a candidate costs one length-|Y| dot product
// plus a handful of scalar ops, where the naive form copies the histogram
// and rescans it three times.
type covAccum struct {
	sum, sumSq   float64 // over the group's label histogram
	nSum, nSumSq float64 // over the members' sample counts
	size         float64
}

// admit folds pool client pc (histogram row) into the accumulator. Must be
// called before g.add(pc.c) mutates the histogram the cross term is
// computed against.
func (ac *covAccum) admit(g *Group, pc poolClient, row []float64) {
	cross := 0.0
	for y, n := range row {
		cross = float64(g.Counts[y]*n) + cross
	}
	ac.sum += pc.cSum
	ac.sumSq += float64(2*cross) + pc.cSq
	ac.nSum += pc.n
	ac.nSumSq += float64(pc.n * pc.n)
	ac.size++
}

// covSquared converts running sums into the squared coefficient of
// variation sigma²/mu² of a y-bin histogram, with the CoVOfCounts edge
// semantics: an empty or zero-total histogram scores +Inf. The E[x²]−mu²
// variance form can go fractionally negative from rounding, so it is
// clamped at zero.
func covSquared(sum, sumSq float64, y int) float64 {
	if y == 0 || sum <= 0 {
		return math.Inf(1)
	}
	mu := sum / float64(y)
	v := sumSq/float64(y) - float64(mu*mu)
	if v < 0 {
		v = 0
	}
	return v / (mu * mu)
}

// scoreCurrent evaluates the criterion for the group as it stands. With
// GammaWeight zero (Alg. 2 exactly) the returned value is the *squared*
// CoV — monotone in the CoV, so argmin candidates and threshold checks
// against the squared bound are unchanged while every evaluation skips a
// sqrt. With GammaWeight set the criterion mixes two CoVs additively and
// squaring would not commute, so both terms take their sqrt.
func (a CoVGrouping) scoreCurrent(ac covAccum, classes int) float64 {
	s := covSquared(ac.sum, ac.sumSq, classes)
	if a.GammaWeight <= 0 {
		return s
	}
	return math.Sqrt(s) + float64(a.GammaWeight*covOfSums(ac.nSum, ac.nSumSq, ac.size))
}

// scoreWith evaluates the criterion with pool client pc (histogram row)
// tentatively added.
func (a CoVGrouping) scoreWith(ac covAccum, gc []float64, pc poolClient, row []float64, classes int) float64 {
	cross := 0.0
	for y, n := range row {
		cross = float64(gc[y]*n) + cross
	}
	sum := ac.sum + pc.cSum
	sumSq := ac.sumSq + float64(2*cross) + pc.cSq
	s := covSquared(sum, sumSq, classes)
	if a.GammaWeight <= 0 {
		return s
	}
	return math.Sqrt(s) +
		float64(a.GammaWeight*covOfSums(ac.nSum+pc.n, ac.nSumSq+float64(pc.n*pc.n), ac.size+1))
}

// covOfSums is the CoV of a count list given its running sums, matching
// stats.CoV semantics: an all-zero list has CoV 0 (nonnegative counts sum
// to zero only when every count is zero).
func covOfSums(sum, sumSq, n float64) float64 {
	if sum <= 0 {
		return 0
	}
	mu := sum / n
	v := sumSq/n - float64(mu*mu)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v) / mu
}

// argminScan is Alg. 2 line 5 with GammaWeight zero: over the packed
// histogram rows of pool (row ci is hists[ci*len(gc):(ci+1)*len(gc)]) it
// returns the index of the candidate whose addition to a group with label
// histogram gc and running sums acSum, acSumSq minimizes the CoV, with that
// candidate's post-addition sums. The squared CoV is y·sumSq/sum² − 1, a
// monotone function of sumSq/sum², so the argmin is found by cross-multiplied
// comparison — no division and no call in the scan, just the dot product
// g·c against the packed rows. Ties keep the earlier candidate. A candidate
// whose post-addition total is zero (no data joining a group with none)
// compares as NaN and so never displaces an earlier one; the best == -1
// guard takes it when it comes first, so best is -1 only for an empty pool.
//
// The scan walks four candidates per pass with four independent
// accumulators: one candidate's |Y|-term add chain is latency-bound, four
// interleaved chains run at the core's issue rate. What is interleaved is
// the candidates, not the terms — each cross term is still summed in
// ascending class order and the four tails are compared in ascending
// candidate order — so the result is bit-identical to scanning one candidate
// at a time (fractional histograms included), which is what the remainder
// loop does for the last len(pool) mod 4. The rows are re-sliced to len(gc)
// once per pass so the inner loops carry no bounds check. Being its own
// function also takes the scan's speed out of the hands of wherever the
// linker happens to place Form.
//
//lint:hotpath
func argminScan(hists []float64, pool []poolClient, gc []float64, acSum, acSumSq float64) (best int, bestSum, bestSumSq float64) {
	best, bestSumSq = -1, math.Inf(1)
	classes := len(gc)
	hists = hists[:len(pool)*classes]
	ci := 0
	for ; ci+4 <= len(pool); ci += 4 {
		rows := hists[ci*classes:]
		r0 := rows[:classes]
		r1 := rows[classes:][:classes]
		r2 := rows[2*classes:][:classes]
		r3 := rows[3*classes:][:classes]
		var c0, c1, c2, c3 float64
		for y, g := range gc {
			c0 = float64(g*r0[y]) + c0
			c1 = float64(g*r1[y]) + c1
			c2 = float64(g*r2[y]) + c2
			c3 = float64(g*r3[y]) + c3
		}
		p := pool[ci : ci+4 : ci+4]
		sum, sumSq := acSum+p[0].cSum, acSumSq+float64(2*c0)+p[0].cSq
		if best == -1 || sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci, sum, sumSq
		}
		// best is set from here on: only a pass's first tail can meet -1.
		sum, sumSq = acSum+p[1].cSum, acSumSq+float64(2*c1)+p[1].cSq
		if sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci+1, sum, sumSq
		}
		sum, sumSq = acSum+p[2].cSum, acSumSq+float64(2*c2)+p[2].cSq
		if sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci+2, sum, sumSq
		}
		sum, sumSq = acSum+p[3].cSum, acSumSq+float64(2*c3)+p[3].cSq
		if sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci+3, sum, sumSq
		}
	}
	for ; ci < len(pool); ci++ {
		row := hists[ci*classes:][:classes]
		cross := 0.0
		for y, g := range gc {
			cross = float64(g*row[y]) + cross
		}
		sum := acSum + pool[ci].cSum
		sumSq := acSumSq + float64(2*cross) + pool[ci].cSq
		if best == -1 || sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci, sum, sumSq
		}
	}
	return best, bestSum, bestSumSq
}

// Form implements Algorithm 2. The candidate evaluation is incremental
// (running sums plus one dot product per candidate, see covAccum), so the
// whole formation costs O(|K|² · |Y|) instead of the paper's stated
// O(|K|³ · |Y|) — the greedy decisions are identical up to floating-point
// rounding of the criterion. Candidate histograms are packed into one
// contiguous row matrix so the argmin scan is a sequential stream (the
// pool is consumed by swap-delete, which moves one row per removal); at a
// million clients this memory layout, not the flop count, is what keeps
// formation in seconds. The scan itself — nearly all of a formation's time —
// is argminScan when GammaWeight is zero: four candidates per pass, each
// summed and compared in the order a one-at-a-time scan would, so which
// client is admitted does not depend on how the scan is scheduled.
func (a CoVGrouping) Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*Group {
	if a.MinGS <= 0 {
		panic("grouping: MinGS must be positive")
	}
	pool := make([]poolClient, len(clients))
	hists := make([]float64, len(clients)*classes)
	for i, c := range clients {
		pc := poolClient{c: c, n: float64(c.NumSamples())}
		row := hists[i*classes : (i+1)*classes]
		for y, n := range c.Counts {
			row[y] = n
			pc.cSum += n
			pc.cSq += float64(n * n)
		}
		pool[i] = pc
	}
	// remove swap-deletes pool entry i, keeping the row matrix dense.
	remove := func(i int) {
		last := len(pool) - 1
		pool[i] = pool[last]
		copy(hists[i*classes:(i+1)*classes], hists[last*classes:(last+1)*classes])
		pool = pool[:last]
	}
	var groups []*Group

	maxCoV := a.MaxCoV
	if maxCoV <= 0 {
		maxCoV = math.Inf(1)
	}
	// The threshold the (possibly squared) score is compared against.
	maxScore := maxCoV
	if a.GammaWeight <= 0 {
		maxScore = maxCoV * maxCoV
	}

	for len(pool) > 0 {
		// Line 3: seed the new group with a random client.
		pick := rng.IntN(len(pool))
		g := NewGroup(firstID+len(groups), edge, nil, classes)
		// Most groups stop at MinGS members: one allocation instead of
		// append growing 1→2→4→8 (never more than the pool still holds).
		g.Clients = make([]*data.Client, 0, min(a.MinGS, len(pool)))
		var ac covAccum
		ac.admit(g, pool[pick], hists[pick*classes:(pick+1)*classes])
		g.add(pool[pick].c)
		remove(pick)

		// Line 4: grow while the requirement is unmet and clients remain.
		for (a.scoreCurrent(ac, classes) > maxScore || g.Size() < a.MinGS) && len(pool) > 0 {
			cur := a.scoreCurrent(ac, classes)
			// Line 5: the candidate minimizing the post-addition criterion.
			best, bestScore := -1, math.Inf(1)
			gc := g.Counts[:classes]
			if a.GammaWeight <= 0 {
				var bestSum, bestSumSq float64
				best, bestSum, bestSumSq = argminScan(hists, pool, gc, ac.sum, ac.sumSq)
				bestScore = covSquared(bestSum, bestSumSq, classes)
			} else {
				for ci := range pool {
					s := a.scoreWith(ac, gc, pool[ci], hists[ci*classes:(ci+1)*classes], classes)
					if s < bestScore {
						best, bestScore = ci, s
					}
				}
			}
			// Line 6: accept if it improves the criterion or the group is
			// still too small.
			if bestScore < cur || g.Size() < a.MinGS {
				ac.admit(g, pool[best], hists[best*classes:(best+1)*classes])
				g.add(pool[best].c)
				remove(best)
			} else {
				break // Line 9: finalize.
			}
		}
		groups = append(groups, g)
	}

	// Optional leftover handling (see Config.MergeLeftover).
	if a.MergeLeftover && len(groups) > 1 {
		last := groups[len(groups)-1]
		if last.Size() < a.MinGS {
			groups = groups[:len(groups)-1]
			mergeLeftover(groups, last, stats.CoVOfCounts)
			// Re-number densely.
			for i, g := range groups {
				g.ID = firstID + i
			}
		}
	}
	return groups
}

// VarianceGrouping is the ablation variant that greedily minimizes the raw
// histogram variance instead of the CoV — the criterion the paper argues
// against in Sec. 5.1 because it is scale-sensitive. Structure is otherwise
// identical to CoVGrouping with no MaxCoV constraint (variance has no
// natural scale to threshold).
type VarianceGrouping struct {
	Config
}

// Name returns "VarG".
func (VarianceGrouping) Name() string { return "VarG" }

// Form greedily minimizes the post-addition histogram variance.
func (a VarianceGrouping) Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*Group {
	if a.MinGS <= 0 {
		panic("grouping: MinGS must be positive")
	}
	pool := append([]*data.Client(nil), clients...)
	var groups []*Group
	for len(pool) > 0 {
		pick := rng.IntN(len(pool))
		g := NewGroup(firstID+len(groups), edge, nil, classes)
		g.add(pool[pick])
		pool[pick] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]

		for g.Size() < a.MinGS && len(pool) > 0 {
			best, bestScore := -1, math.Inf(1)
			trial := make([]float64, classes)
			for ci, c := range pool {
				copy(trial, g.Counts)
				for y, n := range c.Counts {
					trial[y] += n
				}
				if s := stats.VarianceOfCounts(trial); s < bestScore {
					best, bestScore = ci, s
				}
			}
			c := pool[best]
			g.add(c)
			pool[best] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
		groups = append(groups, g)
	}
	if a.MergeLeftover && len(groups) > 1 {
		last := groups[len(groups)-1]
		if last.Size() < a.MinGS {
			groups = groups[:len(groups)-1]
			mergeLeftover(groups, last, stats.VarianceOfCounts)
			for i, g := range groups {
				g.ID = firstID + i
			}
		}
	}
	return groups
}
