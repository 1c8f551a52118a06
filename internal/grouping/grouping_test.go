package grouping

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/stats"
)

// makeClients builds a Dirichlet-partitioned client population for tests.
func makeClients(t *testing.T, n int, alpha float64, seed uint64) ([]*data.Client, int) {
	t.Helper()
	g := data.NewGenerator(data.FlatConfig(10, 4, seed))
	ds := g.Sample(n*150, 0)
	cfg := data.DefaultPartitionConfig(n, alpha, seed)
	return data.DirichletPartition(ds, cfg), ds.Classes
}

// checkPartition verifies that groups exactly partition the client set.
func checkPartition(t *testing.T, clients []*data.Client, groups []*Group) {
	t.Helper()
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, c := range g.Clients {
			if seen[c.ID] {
				t.Fatalf("client %d in two groups", c.ID)
			}
			seen[c.ID] = true
		}
	}
	if len(seen) != len(clients) {
		t.Fatalf("groups cover %d of %d clients", len(seen), len(clients))
	}
}

func avgCoV(groups []*Group) float64 {
	s := 0.0
	for _, g := range groups {
		s += g.CoV()
	}
	return s / float64(len(groups))
}

func avgSize(groups []*Group) float64 {
	s := 0
	for _, g := range groups {
		s += g.Size()
	}
	return float64(s) / float64(len(groups))
}

func TestGroupAccessors(t *testing.T) {
	clients := []*data.Client{
		{ID: 0, N: 4, Counts: []float64{2, 2}},
		{ID: 1, N: 6, Counts: []float64{1, 5}},
	}
	g := NewGroup(3, 1, clients, 2)
	if g.Size() != 2 || g.NumSamples() != 10 {
		t.Fatalf("Size=%d NumSamples=%d", g.Size(), g.NumSamples())
	}
	if g.Counts[0] != 3 || g.Counts[1] != 7 {
		t.Fatalf("Counts=%v", g.Counts)
	}
	if g.CoV() != stats.CoVOfCounts([]float64{3, 7}) {
		t.Fatal("CoV mismatch")
	}
	if g.Gamma() != stats.GammaFactor([]float64{4, 6}) {
		t.Fatal("Gamma mismatch")
	}
}

func TestCoVGroupingPartitionAndMinGS(t *testing.T) {
	clients, classes := makeClients(t, 40, 0.3, 1)
	alg := CoVGrouping{Config: Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}}
	groups := alg.Form(clients, classes, 0, 0, stats.NewRNG(2))
	checkPartition(t, clients, groups)
	for _, g := range groups {
		if g.Size() < 5 {
			t.Errorf("group %d size %d < MinGS", g.ID, g.Size())
		}
	}
}

func TestCoVGroupingBeatsRandomOnCoV(t *testing.T) {
	clients, classes := makeClients(t, 60, 0.2, 3)
	cov := CoVGrouping{Config: Config{MinGS: 5, MaxCoV: 0.3, MergeLeftover: true}}
	rg := RandomGrouping{Config: Config{MinGS: 5}}
	covGroups := cov.Form(clients, classes, 0, 0, stats.NewRNG(4))
	rgGroups := rg.Form(clients, classes, 0, 0, stats.NewRNG(4))
	if avgCoV(covGroups) >= avgCoV(rgGroups) {
		t.Fatalf("CoVG avg CoV %.3f should beat RG %.3f", avgCoV(covGroups), avgCoV(rgGroups))
	}
}

func TestCoVGroupingMaxCoVControlsSize(t *testing.T) {
	// Table 1 shape: larger MaxCoV allows smaller groups with larger CoV.
	clients, classes := makeClients(t, 80, 0.3, 5)
	strict := CoVGrouping{Config: Config{MinGS: 5, MaxCoV: 0.1, MergeLeftover: true}}
	loose := CoVGrouping{Config: Config{MinGS: 5, MaxCoV: 1.0, MergeLeftover: true}}
	sg := strict.Form(clients, classes, 0, 0, stats.NewRNG(6))
	lg := loose.Form(clients, classes, 0, 0, stats.NewRNG(6))
	if avgSize(sg) < avgSize(lg) {
		t.Fatalf("strict MaxCoV avg size %.2f should be >= loose %.2f", avgSize(sg), avgSize(lg))
	}
	if avgCoV(sg) > avgCoV(lg) {
		t.Fatalf("strict MaxCoV avg CoV %.3f should be <= loose %.3f", avgCoV(sg), avgCoV(lg))
	}
}

func TestCoVGroupingDeterministic(t *testing.T) {
	clients, classes := makeClients(t, 30, 0.5, 7)
	alg := CoVGrouping{Config: Config{MinGS: 4, MaxCoV: 0.5, MergeLeftover: true}}
	a := alg.Form(clients, classes, 0, 0, stats.NewRNG(9))
	b := alg.Form(clients, classes, 0, 0, stats.NewRNG(9))
	if len(a) != len(b) {
		t.Fatal("formation not deterministic")
	}
	for i := range a {
		if a[i].Size() != b[i].Size() {
			t.Fatal("formation not deterministic")
		}
		for j := range a[i].Clients {
			if a[i].Clients[j].ID != b[i].Clients[j].ID {
				t.Fatal("formation not deterministic")
			}
		}
	}
}

func TestCoVGroupingNoMaxCoV(t *testing.T) {
	clients, classes := makeClients(t, 30, 0.5, 8)
	alg := CoVGrouping{Config: Config{MinGS: 15, MergeLeftover: true}} // MaxCoV disabled
	groups := alg.Form(clients, classes, 0, 0, stats.NewRNG(1))
	checkPartition(t, clients, groups)
	for _, g := range groups {
		if g.Size() < 15 {
			t.Errorf("group size %d < 15", g.Size())
		}
	}
}

// TestCoVGroupingMinGSAbovePopulation: a floor no population can meet (MinGS
// arrives from flags and job specs) yields one group of everyone, and costs
// no more memory than that group.
func TestCoVGroupingMinGSAbovePopulation(t *testing.T) {
	clients, classes := makeClients(t, 12, 0.5, 10)
	alg := CoVGrouping{Config: Config{MinGS: math.MaxInt, MaxCoV: 0.5, MergeLeftover: true}}
	groups := alg.Form(clients, classes, 0, 0, stats.NewRNG(1))
	checkPartition(t, clients, groups)
	if len(groups) != 1 {
		t.Fatalf("%d groups, want the whole population in one", len(groups))
	}
}

func TestCoVGroupingLeftoverKeptWhenDisabled(t *testing.T) {
	clients, classes := makeClients(t, 23, 0.5, 9)
	alg := CoVGrouping{Config: Config{MinGS: 5, MaxCoV: 0.3, MergeLeftover: false}}
	groups := alg.Form(clients, classes, 0, 0, stats.NewRNG(2))
	checkPartition(t, clients, groups)
	// With 23 clients and MinGS 5 the tail group may be undersized; all we
	// require is faithfulness: no client lost, order of groups preserved.
	small := 0
	for _, g := range groups[:len(groups)-1] {
		if g.Size() < 5 {
			small++
		}
	}
	if small > 0 {
		t.Fatalf("%d non-final groups below MinGS", small)
	}
}

func TestCoVGroupingGammaWeight(t *testing.T) {
	clients, classes := makeClients(t, 40, 0.5, 10)
	plain := CoVGrouping{Config: Config{MinGS: 5, MergeLeftover: true}}
	gamma := CoVGrouping{Config: Config{MinGS: 5, MergeLeftover: true}, GammaWeight: 1.0}
	pg := plain.Form(clients, classes, 0, 0, stats.NewRNG(3))
	gg := gamma.Form(clients, classes, 0, 0, stats.NewRNG(3))
	checkPartition(t, clients, gg)
	avgGamma := func(groups []*Group) float64 {
		s := 0.0
		for _, g := range groups {
			s += g.Gamma()
		}
		return s / float64(len(groups))
	}
	// γ-aware formation should not produce *worse* sample-count balance.
	if avgGamma(gg) > avgGamma(pg)*1.15 {
		t.Fatalf("gamma-aware grouping γ=%.3f much worse than plain γ=%.3f", avgGamma(gg), avgGamma(pg))
	}
}

func TestRandomGroupingSizes(t *testing.T) {
	clients, classes := makeClients(t, 23, 0.5, 11)
	alg := RandomGrouping{Config: Config{MinGS: 5}}
	groups := alg.Form(clients, classes, 0, 0, stats.NewRNG(1))
	checkPartition(t, clients, groups)
	for _, g := range groups {
		if g.Size() < 5 {
			t.Errorf("RG group size %d < MinGS", g.Size())
		}
	}
}

func TestCDGroupingPartition(t *testing.T) {
	clients, classes := makeClients(t, 50, 0.2, 12)
	alg := CDGrouping{Config: Config{MinGS: 5}}
	groups := alg.Form(clients, classes, 0, 0, stats.NewRNG(1))
	checkPartition(t, clients, groups)
}

func TestCDGroupingBeatsRandomOnCoV(t *testing.T) {
	clients, classes := makeClients(t, 60, 0.1, 13)
	cdg := CDGrouping{Config: Config{MinGS: 6}}
	rg := RandomGrouping{Config: Config{MinGS: 6}}
	// Average over seeds to damp variance.
	cd, r := 0.0, 0.0
	for s := uint64(0); s < 5; s++ {
		cd += avgCoV(cdg.Form(clients, classes, 0, 0, stats.NewRNG(s)))
		r += avgCoV(rg.Form(clients, classes, 0, 0, stats.NewRNG(s)))
	}
	if cd > r*1.1 {
		t.Fatalf("CDG avg CoV %.3f clearly worse than RG %.3f", cd/5, r/5)
	}
}

func TestKLDGroupingPartitionAndQuality(t *testing.T) {
	clients, classes := makeClients(t, 40, 0.2, 14)
	kld := KLDGrouping{Config: Config{MinGS: 5, MergeLeftover: true}}
	rg := RandomGrouping{Config: Config{MinGS: 5}}
	kg := kld.Form(clients, classes, 0, 0, stats.NewRNG(2))
	checkPartition(t, clients, kg)
	global := stats.Normalize(data.GlobalCounts(clients, classes))
	avgKLD := func(groups []*Group) float64 {
		s := 0.0
		for _, g := range groups {
			s += stats.KLDivergence(stats.Normalize(g.Counts), global)
		}
		return s / float64(len(groups))
	}
	rgroups := rg.Form(clients, classes, 0, 0, stats.NewRNG(2))
	if avgKLD(kg) >= avgKLD(rgroups) {
		t.Fatalf("KLDG avg KLD %.4f should beat RG %.4f", avgKLD(kg), avgKLD(rgroups))
	}
}

func TestVarianceGroupingPartition(t *testing.T) {
	clients, classes := makeClients(t, 30, 0.3, 15)
	alg := VarianceGrouping{Config: Config{MinGS: 5, MergeLeftover: true}}
	groups := alg.Form(clients, classes, 0, 0, stats.NewRNG(3))
	checkPartition(t, clients, groups)
	for _, g := range groups {
		if g.Size() < 5 {
			t.Errorf("VarG group size %d < MinGS", g.Size())
		}
	}
}

func TestFormAllAcrossEdges(t *testing.T) {
	clients, classes := makeClients(t, 45, 0.3, 16)
	edges := data.SplitAcrossEdges(clients, 3)
	alg := CoVGrouping{Config: Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}}
	groups := FormAll(alg, edges, classes, stats.NewRNG(4))
	checkPartition(t, clients, groups)
	// IDs dense and unique; edges tagged.
	for i, g := range groups {
		if g.ID != i {
			t.Fatalf("group IDs not dense: %d at position %d", g.ID, i)
		}
		if g.Edge < 0 || g.Edge > 2 {
			t.Fatalf("bad edge tag %d", g.Edge)
		}
	}
	// No group spans two edges.
	for _, g := range groups {
		edge := g.Edge
		for _, c := range g.Clients {
			if c.ID%3 != edge {
				t.Fatalf("client %d on edge %d appears in group of edge %d", c.ID, c.ID%3, edge)
			}
		}
	}
}

func TestCoVGroupingPropertyInvariants(t *testing.T) {
	// Property over random populations and seeds: CoVG always produces a
	// partition, honours MinGS (with merging), and never exceeds the pool.
	err := quick.Check(func(seed uint64) bool {
		n := 10 + int(seed%30)
		g := data.NewGenerator(data.FlatConfig(6, 4, seed))
		ds := g.Sample(n*60, 0)
		clients := data.DirichletPartition(ds, data.PartitionConfig{
			NumClients: n, Alpha: 0.3,
			MinSamples: 10, MaxSamples: 50, MeanSamples: 30, StdSamples: 10,
			Seed: seed,
		})
		alg := CoVGrouping{Config: Config{MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}}
		groups := alg.Form(clients, ds.Classes, 0, 0, stats.NewRNG(seed))
		seen := map[int]bool{}
		for _, gr := range groups {
			if gr.Size() < 3 {
				return false
			}
			for _, c := range gr.Clients {
				if seen[c.ID] {
					return false
				}
				seen[c.ID] = true
			}
		}
		return len(seen) == n
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}
