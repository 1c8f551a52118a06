package data

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(FlatConfig(4, 8, 5))
	g2 := NewGenerator(FlatConfig(4, 8, 5))
	a := g1.Sample(20, 1)
	b := g2.Sample(20, 1)
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed+tag must produce identical data")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed+tag must produce identical labels")
		}
	}
}

func TestGeneratorTagsIndependent(t *testing.T) {
	g := NewGenerator(FlatConfig(4, 8, 5))
	a := g.Sample(50, 1)
	b := g.Sample(50, 2)
	same := 0
	for i := range a.X {
		if a.X[i] == b.X[i] {
			same++
		}
	}
	if same > len(a.X)/10 {
		t.Fatalf("different tags produced %d/%d equal features", same, len(a.X))
	}
}

func TestGeneratorLabelRange(t *testing.T) {
	g := NewGenerator(SynthCIFARConfig(1))
	ds := g.Sample(500, 0)
	if ds.Classes != 10 || ds.Dim() != 3*8*8 {
		t.Fatalf("unexpected config: classes=%d dim=%d", ds.Classes, ds.Dim())
	}
	hist := make([]int, ds.Classes)
	for _, y := range ds.Y {
		if y < 0 || y >= ds.Classes {
			t.Fatalf("label %d out of range", y)
		}
		hist[y]++
	}
	for c, n := range hist {
		if n == 0 {
			t.Errorf("class %d never sampled in 500 draws", c)
		}
	}
}

func TestGeneratorClassStructure(t *testing.T) {
	// Samples of the same class+mode should be closer to their prototype
	// than to other classes' prototypes on average — i.e. the task is
	// learnable.
	cfg := FlatConfig(3, 16, 9)
	cfg.Noise = 0.5
	cfg.Modes = 1
	g := NewGenerator(cfg)
	ds := g.Sample(300, 0)
	// Compute class means.
	dim := ds.Dim()
	means := make([][]float64, 3)
	counts := make([]int, 3)
	for i := range means {
		means[i] = make([]float64, dim)
	}
	for i, y := range ds.Y {
		counts[y]++
		for j := 0; j < dim; j++ {
			means[y][j] += ds.X[i*dim+j]
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, y := range ds.Y {
		row := ds.X[i*dim : (i+1)*dim]
		best, bestD := -1, math.Inf(1)
		for c := range means {
			d := stats.L2Distance(row, means[c])
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == y {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(ds.Y)); frac < 0.9 {
		t.Fatalf("nearest-mean accuracy %.2f on low-noise data; class structure broken", frac)
	}
}

func TestBatchShapesAndContent(t *testing.T) {
	g := NewGenerator(SynthCIFARConfig(2))
	ds := g.Sample(10, 0)
	x, y := ds.Batch([]int{3, 7})
	if x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 8 || x.Shape[3] != 8 {
		t.Fatalf("batch shape %v", x.Shape)
	}
	if y[0] != ds.Y[3] || y[1] != ds.Y[7] {
		t.Fatalf("batch labels %v", y)
	}
	dim := ds.Dim()
	for j := 0; j < dim; j++ {
		if x.Data[j] != ds.X[3*dim+j] {
			t.Fatal("batch features misaligned")
		}
	}
}

func TestBatchPanicsOutOfRange(t *testing.T) {
	g := NewGenerator(FlatConfig(2, 4, 1))
	ds := g.Sample(5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.Batch([]int{5})
}

func TestDirichletPartitionInvariants(t *testing.T) {
	g := NewGenerator(FlatConfig(10, 4, 3))
	ds := g.Sample(5000, 0)
	cfg := DefaultPartitionConfig(30, 0.5, 7)
	clients, rows := DirichletPartition(ds, cfg)

	if len(clients) != 30 {
		t.Fatalf("got %d clients", len(clients))
	}
	seen := make(map[int]bool)
	off := 0
	for _, c := range clients {
		if c.NumSamples() < cfg.MinSamples || c.NumSamples() > cfg.MaxSamples {
			t.Errorf("client %d has %d samples outside [%d,%d]", c.ID, c.NumSamples(), cfg.MinSamples, cfg.MaxSamples)
		}
		counts := make([]float64, ds.Classes)
		for _, i := range rows[off : off+c.N] {
			if seen[i] {
				t.Fatalf("sample %d assigned to two clients", i)
			}
			seen[i] = true
			counts[ds.Y[i]]++
		}
		// Counts histogram must agree with actual labels.
		for y := range counts {
			if counts[y] != c.Counts[y] {
				t.Fatalf("client %d counts mismatch at label %d", c.ID, y)
			}
		}
		off += c.N
	}
	if off != len(rows) {
		t.Fatalf("%d rows assigned, clients hold %d", len(rows), off)
	}
}

func TestDirichletPartitionSkewTracksAlpha(t *testing.T) {
	g := NewGenerator(FlatConfig(10, 4, 3))
	ds := g.Sample(20000, 0)
	avgCoV := func(alpha float64) float64 {
		clients, _ := DirichletPartition(ds, DefaultPartitionConfig(50, alpha, 11))
		s := 0.0
		for _, c := range clients {
			s += stats.CoVOfCounts(c.Counts)
		}
		return s / float64(len(clients))
	}
	skewed := avgCoV(0.05)
	flat := avgCoV(10)
	if skewed <= flat {
		t.Fatalf("alpha=0.05 CoV %v should exceed alpha=10 CoV %v", skewed, flat)
	}
}

func TestDirichletPartitionDeterministic(t *testing.T) {
	g := NewGenerator(FlatConfig(5, 4, 3))
	ds := g.Sample(3000, 0)
	a, ra := DirichletPartition(ds, DefaultPartitionConfig(20, 0.5, 13))
	b, rb := DirichletPartition(ds, DefaultPartitionConfig(20, 0.5, 13))
	for i := range a {
		if a[i].N != b[i].N {
			t.Fatal("partition not deterministic")
		}
	}
	if !slices.Equal(ra, rb) {
		t.Fatal("partition not deterministic")
	}
}

func TestDirichletPartitionPanicsWhenTooSmall(t *testing.T) {
	g := NewGenerator(FlatConfig(3, 4, 1))
	ds := g.Sample(50, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undersized dataset")
		}
	}()
	DirichletPartition(ds, DefaultPartitionConfig(10, 0.5, 1))
}

func TestGlobalCounts(t *testing.T) {
	clients := []*Client{
		{Counts: []float64{1, 2}},
		{Counts: []float64{3, 4}},
	}
	g := GlobalCounts(clients, 2)
	if g[0] != 4 || g[1] != 6 {
		t.Fatalf("GlobalCounts = %v", g)
	}
}

func TestSplitAcrossEdges(t *testing.T) {
	clients := make([]*Client, 10)
	for i := range clients {
		clients[i] = &Client{ID: i}
	}
	edges := SplitAcrossEdges(clients, 3)
	total := 0
	for _, e := range edges {
		total += len(e)
	}
	if total != 10 {
		t.Fatalf("edges hold %d clients", total)
	}
	if len(edges[0]) != 4 || len(edges[1]) != 3 || len(edges[2]) != 3 {
		t.Fatalf("unbalanced split: %d %d %d", len(edges[0]), len(edges[1]), len(edges[2]))
	}
}

func TestPartitionCountDistribution(t *testing.T) {
	// Property: all assigned indices are valid and counts sum to sample
	// count for any seed.
	g := NewGenerator(FlatConfig(6, 4, 3))
	ds := g.Sample(4000, 0)
	err := quick.Check(func(seed uint64) bool {
		clients, rows := DirichletPartition(ds, DefaultPartitionConfig(15, 0.3, seed))
		total := 0
		for _, i := range rows {
			if i < 0 || i >= ds.Len() {
				return false
			}
		}
		for _, c := range clients {
			total += c.N
			sum := 0.0
			for _, n := range c.Counts {
				sum += n
			}
			if int(sum) != c.NumSamples() {
				return false
			}
		}
		return total == len(rows)
	}, &quick.Config{MaxCount: 10})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImagePrototypesSpatiallySmooth(t *testing.T) {
	// Image-shaped tasks must have spatially structured class signal:
	// horizontally adjacent pixels of a prototype correlate far more than
	// random pairs (low-frequency cosine construction). Verify via class
	// means of low-noise samples.
	cfg := SynthCIFARConfig(3)
	cfg.Noise = 0.1
	cfg.Modes = 1
	g := NewGenerator(cfg)
	ds := g.Sample(400, 0)
	dim := ds.Dim()
	c, h, w := 3, 8, 8
	// Mean image of class 0.
	mean := make([]float64, dim)
	n := 0
	for i, y := range ds.Y {
		if y != 0 {
			continue
		}
		n++
		for j := 0; j < dim; j++ {
			mean[j] += ds.X[i*dim+j]
		}
	}
	if n == 0 {
		t.Fatal("class 0 never sampled")
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	// Average |difference| between horizontal neighbours vs random pairs.
	rng := stats.NewRNG(9)
	adj, rnd := 0.0, 0.0
	cnt := 0
	for ci := 0; ci < c; ci++ {
		for y := 0; y < h; y++ {
			for x := 0; x+1 < w; x++ {
				i := ci*h*w + y*w + x
				adj += math.Abs(mean[i] - mean[i+1])
				rnd += math.Abs(mean[i] - mean[rng.IntN(dim)])
				cnt++
			}
		}
	}
	adj /= float64(cnt)
	rnd /= float64(cnt)
	if adj >= rnd*0.8 {
		t.Fatalf("no spatial smoothness: adjacent diff %v vs random %v", adj, rnd)
	}
}

func TestFlatPrototypesUnstructured(t *testing.T) {
	// Flat tasks keep i.i.d. prototypes: adjacency carries no signal.
	cfg := FlatConfig(3, 64, 4)
	cfg.Noise = 0.1
	cfg.Modes = 1
	g := NewGenerator(cfg)
	ds := g.Sample(300, 0)
	dim := ds.Dim()
	mean := make([]float64, dim)
	n := 0
	for i, y := range ds.Y {
		if y != 0 {
			continue
		}
		n++
		for j := 0; j < dim; j++ {
			mean[j] += ds.X[i*dim+j]
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	adj := 0.0
	for j := 0; j+1 < dim; j++ {
		adj += math.Abs(mean[j] - mean[j+1])
	}
	adj /= float64(dim - 1)
	// i.i.d. N(0,1) neighbours differ by ~E|X-Y| = 2/sqrt(pi) ≈ 1.13.
	if adj < 0.5 {
		t.Fatalf("flat prototypes look smooth (adj diff %v); structure leaked", adj)
	}
}
