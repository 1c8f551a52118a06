package grouping

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/stats"
)

// CoVGrouping is the paper's greedy group formation (Alg. 2). Groups are
// built one at a time: a random seed client starts the group, then the
// client whose addition minimizes the group CoV is added until both the
// MinGS and MaxCoV requirements hold (or no addition improves the CoV and
// the size constraint is already met).
type CoVGrouping struct {
	Config
}

// Name returns "CoVG".
func (CoVGrouping) Name() string { return "CoVG" }

// lanePool is Form's candidate pool, laid out so that four candidates share
// a vector. A block of four candidates is classes+3 four-lane rows: the
// histogram transposed (row y holds the four candidates' class-y counts),
// then their totals Σ_y c_y, self-products Σ_y c_y² and sample counts n_i —
// everything about a candidate the greedy loop and admit read, precomputed
// once per Form call. Candidate ci is lane ci&3 of block ci>>2 and
// clients[ci] is its client; the live pool is len(clients) long and the
// lanes past it are stale.
// One layout on every architecture: the scan streams sequential memory, the
// amd64 filter loads a row as one vector, and after packing nothing in Form
// dereferences a *data.Client (they are 100k scattered cache misses at
// population scale) except the leftover merge of fewer than MinGS members.
type lanePool struct {
	rows    [][4]float64
	clients []*data.Client
	classes int
}

// packPool lays clients out as a lanePool. A histogram shorter than classes
// is zero-padded; a longer one would spill into its block's Σc rows.
func packPool(clients []*data.Client, classes int) lanePool {
	stride := classes + 3
	p := lanePool{
		rows:    make([][4]float64, (len(clients)+3)/4*stride),
		clients: append([]*data.Client(nil), clients...),
		classes: classes,
	}
	for i, c := range clients {
		if len(c.Counts) > classes {
			panic(fmt.Sprintf("grouping: client %d carries a %d-class histogram, formation is over %d classes", c.ID, len(c.Counts), classes))
		}
		blk, l := p.block(i)
		var sum, sq float64
		for y, n := range c.Counts {
			blk[y][l] = n
			sum += n
			sq += float64(n * n)
		}
		blk[classes][l], blk[classes+1][l], blk[classes+2][l] = sum, sq, float64(c.NumSamples())
	}
	return p
}

// block returns the rows of candidate ci's block and its lane in them.
func (p *lanePool) block(ci int) ([][4]float64, int) {
	stride := p.classes + 3
	return p.rows[ci>>2*stride:][:stride], ci & 3
}

// remove swap-deletes candidate ci: the last candidate's lane moves into its.
func (p *lanePool) remove(ci int) {
	last := len(p.clients) - 1
	dst, dl := p.block(ci)
	src, sl := p.block(last)
	for r := range dst {
		dst[r][dl] = src[r][sl]
	}
	p.clients[ci] = p.clients[last]
	p.clients = p.clients[:last]
}

// covAccum carries the running sums that let one candidate addition be
// scored in O(|Y|) flops with no histogram copies: Σ_y g_y and Σ_y g_y² over
// the group label histogram. The post-addition sums follow algebraically —
// Σ (g_y+c_y)² = Σ g_y² + 2·(g·c) + Σ c_y² — so only the dot product g·c
// touches the histogram; everything else about the candidate is a
// precomputed lane. This is what gets Alg. 2 over a million clients in
// seconds: scoring a candidate costs one length-|Y| dot product plus a
// handful of scalar ops, where the naive form copies the histogram and
// rescans it three times.
type covAccum struct {
	sum, sumSq float64
}

// admit moves candidate ci out of the pool into g, folding it into the
// accumulator: what (*Group).add does, read from the candidate's lanes. Each
// class's cross term is taken against the count its own addition then updates.
func (p *lanePool) admit(g *Group, ac *covAccum, ci int) {
	blk, l := p.block(ci)
	cross := 0.0
	for y := range g.Counts[:p.classes] {
		c := blk[y][l]
		cross = float64(g.Counts[y]*c) + cross
		g.Counts[y] += c
	}
	ac.sum += blk[p.classes][l]
	ac.sumSq += float64(2*cross) + blk[p.classes+1][l]
	g.samples += int(blk[p.classes+2][l])
	g.Clients = append(g.Clients, p.clients[ci])
	p.remove(ci)
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

// argminScan is Alg. 2 line 5: over the first n candidates of a lanePool's
// rows it returns the index of the candidate whose addition to a group with
// label histogram gc and running sums acSum, acSumSq minimizes the CoV, with
// that candidate's post-addition sums. The
// squared CoV is y·sumSq/sum² − 1, a monotone function of sumSq/sum², so the
// argmin is found by cross-multiplied comparison — no division and no call
// per candidate, just the dot product g·c against the rows. Ties keep the
// earlier candidate. A candidate whose post-addition total is zero (no data
// joining a group with none) compares as NaN and so never displaces an
// earlier one; the best == -1 guard takes it when it comes first, so best is
// -1 only for an empty pool.
//
// The scan walks a block of four candidates per pass with four independent
// accumulators: one candidate's |Y|-term add chain is latency-bound, four
// interleaved chains run at the core's issue rate. What is interleaved is
// the candidates, not the terms — each cross term is still summed in
// ascending class order and the four tails are compared in ascending
// candidate order — so the result is bit-identical to scanning one candidate
// at a time (fractional histograms included), which is what the remainder
// loop does for the last n mod 4 lanes, never reading a stale one. The block
// is re-sliced once per pass and a row is an array, so the inner loop carries
// no bounds check.
//
// This loop is the only place a candidate is compared and best updated. On
// amd64 with AVX it first asks scanFilter, before every block but the first
// (whose first lane meets the -1 guard), for the next block in which any
// lane passes that very comparison against the current best, and resumes
// there. Skipping the blocks in between is exact: a block none of whose lanes
// beats the running best leaves it unchanged through all four compares, so
// each of them saw the best the filter tested (DESIGN.md §8).
func argminScan(rows [][4]float64, n int, gc []float64, acSum, acSumSq float64) (best int, bestSum, bestSumSq float64) {
	best, bestSumSq = -1, math.Inf(1)
	classes := len(gc)
	stride, full := classes+3, n>>2
	filter := hasAVX && classes > 0
	for b := 0; b < full; b++ {
		if filter && b > 0 {
			b += scanFilter(&rows[b*stride], &gc[0], classes, full-b, acSum, acSumSq, bestSum, bestSumSq)
			if b == full {
				break
			}
		}
		blk := rows[b*stride:][:stride]
		hist := blk[:classes]
		var c0, c1, c2, c3 float64
		for y, g := range gc {
			r := &hist[y]
			c0 = float64(g*r[0]) + c0
			c1 = float64(g*r[1]) + c1
			c2 = float64(g*r[2]) + c2
			c3 = float64(g*r[3]) + c3
		}
		s, q, ci := &blk[classes], &blk[classes+1], b<<2
		sum, sumSq := acSum+s[0], acSumSq+float64(2*c0)+q[0]
		if best == -1 || sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci, sum, sumSq
		}
		// best is set from here on: only a pass's first tail can meet -1.
		sum, sumSq = acSum+s[1], acSumSq+float64(2*c1)+q[1]
		if sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci+1, sum, sumSq
		}
		sum, sumSq = acSum+s[2], acSumSq+float64(2*c2)+q[2]
		if sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci+2, sum, sumSq
		}
		sum, sumSq = acSum+s[3], acSumSq+float64(2*c3)+q[3]
		if sumSq*bestSum*bestSum < bestSumSq*sum*sum {
			best, bestSum, bestSumSq = ci+3, sum, sumSq
		}
	}
	for ci := full << 2; ci < n; ci++ {
		// Sliced here, not above the loop: with n mod 4 zero there is no such block.
		blk, l := rows[full*stride:][:stride], ci&3
		cross := 0.0
		for y, g := range gc {
			cross = float64(g*blk[y][l]) + cross
		}
		sum := acSum + blk[classes][l]
		sumSq := acSumSq + float64(2*cross) + blk[classes+1][l]
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
// rounding of the criterion. Candidates are packed into one lanePool so the
// argmin scan is a sequential stream (the pool is consumed by swap-delete,
// which moves one lane per removal); at a million clients this memory
// layout, not the flop count, is what keeps formation in seconds. The scan
// itself — nearly all of a formation's time — is argminScan: four
// candidates per pass, each summed and compared in the order a
// one-at-a-time scan would, so which client is admitted does not depend on
// how the scan is scheduled. The criterion is compared squared — σ²/μ² is
// monotone in the CoV, so the argmin and the MaxCoV check are unchanged
// while no evaluation takes a sqrt.
func (a CoVGrouping) Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*Group {
	mustValidate(a)
	pool := packPool(clients, classes)
	var groups []*Group

	maxCoV := a.MaxCoV
	if maxCoV <= 0 {
		maxCoV = math.Inf(1)
	}
	maxScore := maxCoV * maxCoV // the criterion is compared squared

	for len(pool.clients) > 0 {
		// Line 3: seed the new group with a random client.
		pick := rng.IntN(len(pool.clients))
		g := NewGroup(firstID+len(groups), edge, nil, classes)
		// Most groups stop at MinGS members: one allocation instead of
		// append growing 1→2→4→8 (never more than the pool still holds).
		g.Clients = make([]*data.Client, 0, min(a.MinGS, len(pool.clients)))
		var ac covAccum
		pool.admit(g, &ac, pick)

		// Line 4: grow while the requirement is unmet and clients remain.
		for (covSquared(ac.sum, ac.sumSq, classes) > maxScore || g.Size() < a.MinGS) && len(pool.clients) > 0 {
			cur := covSquared(ac.sum, ac.sumSq, classes)
			// Line 5: the candidate minimizing the post-addition criterion.
			best, bestSum, bestSumSq := argminScan(pool.rows, len(pool.clients), g.Counts, ac.sum, ac.sumSq)
			bestScore := covSquared(bestSum, bestSumSq, classes)
			// Line 6: accept if it improves the criterion or the group is
			// still too small.
			if bestScore < cur || g.Size() < a.MinGS {
				pool.admit(g, &ac, best)
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
	mustValidate(a)
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
