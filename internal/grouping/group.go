// Package grouping implements the group formation half of the paper's core
// contribution: the CoV-Grouping greedy algorithm (Alg. 2) plus the three
// comparator formation policies used in the evaluation — random grouping
// (RG), the clustering-then-distribution grouping of OUEA (CDG), and the
// KL-divergence grouping of SHARE (KLDG).
//
// Formation operates purely on client label histograms; no features, models,
// or gradients are inspected (paper Sec. 5.1).
package grouping

import (
	"errors"

	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/stats"
)

// Group is a set of clients formed at one edge server, together with the
// aggregate label histogram used to score it.
type Group struct {
	ID      int
	Edge    int
	Clients []*data.Client
	Counts  []float64

	// samples caches the member sample total so NumSamples is O(1) — the
	// aggregation weights read it for every selected group every round.
	samples int
}

// NewGroup builds a group over the given clients, summing their histograms.
func NewGroup(id, edge int, clients []*data.Client, classes int) *Group {
	g := &Group{ID: id, Edge: edge, Counts: make([]float64, classes)}
	for _, c := range clients {
		g.add(c)
	}
	return g
}

func (g *Group) add(c *data.Client) {
	g.Clients = append(g.Clients, c)
	for y, n := range c.Counts {
		g.Counts[y] += n
	}
	g.samples += c.NumSamples()
}

// Size returns the number of clients |g|.
func (g *Group) Size() int { return len(g.Clients) }

// NumSamples returns the total data count n_g.
func (g *Group) NumSamples() int { return g.samples }

// CoV returns the coefficient of variation of the group's label histogram
// (Eq. 27), the paper's grouping criterion.
func (g *Group) CoV() float64 { return stats.CoVOfCounts(g.Counts) }

// Gamma returns the paper's γ factor (Eq. 11) for this group: 1 + CoV² of
// the per-client sample counts. Smaller is better for convergence.
func (g *Group) Gamma() float64 {
	counts := make([]float64, len(g.Clients))
	for i, c := range g.Clients {
		counts[i] = float64(c.NumSamples())
	}
	return stats.GammaFactor(counts)
}

// Config carries the constraints shared by all formation algorithms.
type Config struct {
	// MinGS is the anonymity constraint: every group needs at least this
	// many clients so secure aggregation can hide individual updates
	// (constraint 31).
	MinGS int
	// MaxCoV is the soft quality target of Alg. 2: the greedy loop keeps
	// adding clients until the group CoV drops below it (or no client
	// helps). Zero or negative disables the constraint (any CoV accepted
	// once MinGS is met).
	MaxCoV float64
	// MergeLeftover controls what happens when the client pool runs out
	// mid-group and the final group is below MinGS: when true its members
	// are redistributed to the existing groups that their addition hurts
	// least; when false the undersized group is kept verbatim, exactly as
	// Alg. 2 is written.
	MergeLeftover bool
}

// Validate reports a non-positive MinGS, the condition CoVGrouping and
// VarianceGrouping cannot form under; the baselines, which fall back on
// TargetGS, override it.
func (c Config) Validate() error {
	if c.MinGS <= 0 {
		return errors.New("MinGS must be positive")
	}
	return nil
}

// Algorithm forms groups from the clients of one edge server.
type Algorithm interface {
	// Name is a short identifier used in experiment output (e.g. "CoVG").
	Name() string
	// Validate returns the configuration error Form would panic on, worded
	// without a package tag, or nil.
	Validate() error
	// Form partitions clients into groups. edge tags the produced groups;
	// rng drives any randomized choices. IDs are assigned densely from
	// firstID.
	Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*Group
}

// mustValidate is Form's precondition: it panics with a's configuration
// error.
func mustValidate(a Algorithm) {
	if err := a.Validate(); err != nil {
		panic("grouping: " + err.Error())
	}
}

// FormAll runs alg independently on every edge server's client set,
// mirroring Alg. 1 lines 2–3, and returns the union of all groups with
// globally unique IDs.
//
// Edges form in parallel across cpu.Procs() goroutines. The result is
// bit-identical to forming them serially: each edge's RNG is split from the
// parent serially up front (preserving the parent's consumption order), the
// per-edge formations are independent, and every Algorithm assigns IDs
// densely from firstID — so forming with firstID 0 and renumbering after
// concatenation reproduces exactly the serial numbering.
func FormAll(alg Algorithm, edges [][]*data.Client, classes int, rng *stats.RNG) []*Group {
	rngs := make([]*stats.RNG, len(edges))
	for e := range edges {
		rngs[e] = rng.Split(uint64(e))
	}
	perEdge := make([][]*Group, len(edges))
	cpu.Each(len(edges), 0, func(_, e int) {
		perEdge[e] = alg.Form(edges[e], classes, e, 0, rngs[e])
	})
	var all []*Group
	for _, groups := range perEdge {
		base := len(all)
		for _, g := range groups {
			g.ID += base
		}
		all = append(all, groups...)
	}
	return all
}

// mergeLeftover redistributes the members of an undersized group into the
// existing groups, each client going to the group whose criterion the
// addition degrades least.
func mergeLeftover(groups []*Group, leftover *Group, criterion func(counts []float64) float64) {
	var trial []float64
	for _, c := range leftover.Clients {
		best, bestScore := -1, 0.0
		for gi, g := range groups {
			if cap(trial) < len(g.Counts) {
				trial = make([]float64, len(g.Counts))
			}
			trial = trial[:len(g.Counts)]
			copy(trial, g.Counts)
			for y, n := range c.Counts {
				trial[y] += n
			}
			score := criterion(trial)
			if best == -1 || score < bestScore {
				best, bestScore = gi, score
			}
		}
		groups[best].add(c)
	}
}
