package grouping

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/stats"
)

// RandomGrouping (RG) shuffles the clients and chunks them into groups of
// TargetGS (falling back to MinGS when TargetGS is zero). This is what the
// FedAvg / FedProx / SCAFFOLD baselines use in the paper's experiments.
type RandomGrouping struct {
	Config
	// TargetGS is the desired group size; 0 means MinGS.
	TargetGS int
}

// Name returns "RG".
func (RandomGrouping) Name() string { return "RG" }

// Validate reports that neither TargetGS nor MinGS sets a group size.
func (a RandomGrouping) Validate() error { return sizeErr("RandomGrouping", a.TargetGS, a.Config) }

// groupSize is a baseline's group size: target, or MinGS when target is
// zero.
func groupSize(target int, c Config) int {
	if target > 0 {
		return target
	}
	return c.MinGS
}

// sizeErr is a baseline's Validate: it needs a positive group size.
func sizeErr(name string, target int, c Config) error {
	if groupSize(target, c) <= 0 {
		return fmt.Errorf("%s needs TargetGS or MinGS", name)
	}
	return nil
}

// Form chunks a shuffled client list.
func (a RandomGrouping) Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*Group {
	mustValidate(a)
	size := groupSize(a.TargetGS, a.Config)
	pool := append([]*data.Client(nil), clients...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var groups []*Group
	for lo := 0; lo < len(pool); lo += size {
		hi := lo + size
		if hi > len(pool) {
			hi = len(pool)
		}
		groups = append(groups, NewGroup(firstID+len(groups), edge, pool[lo:hi], classes))
	}
	// A trailing chunk below MinGS merges into the previous group so the
	// anonymity constraint holds for every group.
	if len(groups) > 1 {
		last := groups[len(groups)-1]
		if last.Size() < a.MinGS {
			prev := groups[len(groups)-2]
			for _, c := range last.Clients {
				prev.add(c)
			}
			groups = groups[:len(groups)-1]
		}
	}
	return groups
}

// CDGrouping (CDG) ports OUEA's cluster-then-distribute client assignment to
// group formation: clients are first clustered by their normalized label
// distribution (k-means), then cluster members are dealt round-robin across
// the groups so each group receives a diverse mix.
type CDGrouping struct {
	Config
	// TargetGS is the desired group size; 0 means MinGS.
	TargetGS int
	// NumClusters is the k of the label-distribution k-means; 0 means the
	// number of classes.
	NumClusters int
	// Iters bounds the k-means refinement steps.
	Iters int
}

// Name returns "CDG".
func (CDGrouping) Name() string { return "CDG" }

// Validate reports that neither TargetGS nor MinGS sets a group size.
func (a CDGrouping) Validate() error { return sizeErr("CDGrouping", a.TargetGS, a.Config) }

// Form clusters then distributes.
func (a CDGrouping) Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*Group {
	mustValidate(a)
	size := groupSize(a.TargetGS, a.Config)
	if len(clients) == 0 {
		return nil
	}
	k := a.NumClusters
	if k <= 0 {
		k = classes
	}
	if k > len(clients) {
		k = len(clients)
	}
	iters := a.Iters
	if iters <= 0 {
		iters = 10
	}

	// Normalized label distributions.
	dists := make([][]float64, len(clients))
	for i, c := range clients {
		dists[i] = stats.Normalize(c.Counts)
	}

	// k-means with random initial centroids.
	centroids := make([][]float64, k)
	perm := rng.Perm(len(clients))
	for i := 0; i < k; i++ {
		centroids[i] = append([]float64(nil), dists[perm[i]]...)
	}
	assign := make([]int, len(clients))
	for it := 0; it < iters; it++ {
		changed := false
		for i, d := range dists {
			best, bestD := 0, math.Inf(1)
			for ci, cen := range centroids {
				if dd := stats.L2Distance(d, cen); dd < bestD {
					best, bestD = ci, dd
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		for ci := range centroids {
			for j := range centroids[ci] {
				centroids[ci][j] = 0
			}
		}
		counts := make([]int, k)
		for i, d := range dists {
			ci := assign[i]
			counts[ci]++
			for j, v := range d {
				centroids[ci][j] += v
			}
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				continue
			}
			for j := range centroids[ci] {
				centroids[ci][j] /= float64(counts[ci])
			}
		}
	}

	// Distribution: deal members of each cluster round-robin across groups
	// so similar clients land in different groups.
	numGroups := len(clients) / size
	if numGroups == 0 {
		numGroups = 1
	}
	buckets := make([][]*data.Client, numGroups)
	next := 0
	for ci := 0; ci < k; ci++ {
		for i, c := range clients {
			if assign[i] == ci {
				buckets[next%numGroups] = append(buckets[next%numGroups], c)
				next++
			}
		}
	}
	groups := make([]*Group, 0, numGroups)
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		groups = append(groups, NewGroup(firstID+len(groups), edge, b, classes))
	}
	return groups
}

// KLDGrouping (KLDG) ports SHARE's KL-divergence edge assignment to group
// formation: groups grow greedily, each step adding the client that
// minimizes KL(group distribution ‖ global distribution). Faithful to the
// paper's complexity discussion (Sec. 5.4), the criterion is recomputed from
// scratch over all group members at every candidate evaluation, making the
// formation O(|K|⁴·|Y|)-flavoured and log-heavy — which is exactly why
// Fig. 5 shows KLDG far slower than CoVG.
type KLDGrouping struct {
	Config
	// TargetGS is the size at which a group stops growing once the KLD no
	// longer improves; 0 means MinGS.
	TargetGS int
}

// Name returns "KLDG".
func (KLDGrouping) Name() string { return "KLDG" }

// Validate reports that neither TargetGS nor MinGS sets a group size.
func (a KLDGrouping) Validate() error { return sizeErr("KLDGrouping", a.TargetGS, a.Config) }

// Form greedily minimizes group-to-global KL divergence.
func (a KLDGrouping) Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*Group {
	mustValidate(a)
	size := groupSize(a.TargetGS, a.Config)
	global := stats.Normalize(data.GlobalCounts(clients, classes))
	pool := append([]*data.Client(nil), clients...)
	var groups []*Group

	// kldOf recomputes the group KLD from scratch (deliberately; see type
	// comment), including the trial candidate at index extra (or none if -1).
	kldOf := func(members []*data.Client, extra *data.Client) float64 {
		counts := make([]float64, classes)
		for _, c := range members {
			for y, n := range c.Counts {
				counts[y] += n
			}
		}
		if extra != nil {
			for y, n := range extra.Counts {
				counts[y] += n
			}
		}
		return stats.KLDivergence(stats.Normalize(counts), global)
	}

	for len(pool) > 0 {
		pick := rng.IntN(len(pool))
		g := NewGroup(firstID+len(groups), edge, nil, classes)
		g.add(pool[pick])
		pool[pick] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]

		for len(pool) > 0 {
			cur := kldOf(g.Clients, nil)
			best, bestScore := -1, math.Inf(1)
			for ci, c := range pool {
				if s := kldOf(g.Clients, c); s < bestScore {
					best, bestScore = ci, s
				}
			}
			if bestScore < cur || g.Size() < size {
				c := pool[best]
				g.add(c)
				pool[best] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
			} else {
				break
			}
		}
		groups = append(groups, g)
	}

	if a.MergeLeftover && len(groups) > 1 {
		last := groups[len(groups)-1]
		if last.Size() < a.MinGS {
			groups = groups[:len(groups)-1]
			mergeLeftover(groups, last, func(counts []float64) float64 {
				return stats.KLDivergence(stats.Normalize(counts), global)
			})
			for i, g := range groups {
				g.ID = firstID + i
			}
		}
	}
	return groups
}
