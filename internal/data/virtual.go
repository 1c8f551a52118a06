package data

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// This file implements the virtual (flyweight) client population: a
// million-client federation whose resident state is only the per-client
// label histograms. Features are never stored — they are synthesized
// deterministically from (seed, client ID) at the moment a client is
// selected for training, into a caller-owned SampleBuffer, so a global
// round's working set is O(selected clients) instead of O(population).
//
// Two independent RNG streams exist per client:
//
//   - the label stream, seeded from the partition seed and the client ID,
//     drives the sample count (clipped normal) and the per-sample labels
//     (Dirichlet(alpha) categorical draws). Client(id) consumes only this
//     stream, so histograms cost ~N categorical draws and two small slices.
//   - the feature stream, seeded from the generator seed and the client ID,
//     drives the mode choice and Gaussian noise of every synthesized sample,
//     reusing the Generator's class prototypes.
//
// Because both streams are pure functions of (seed, id), materializing a
// client twice — or materializing the whole population into a Dataset with
// MaterializeAll — yields bit-identical features and labels. That is the
// equivalence the core training tests pin down: training on a virtual
// population and on its materialized copy produces Float64bits-equal models.

// Salt constants separating the virtual per-client streams. The multipliers
// are the usual odd 64-bit mixing constants used by the engine's per-client
// reseeding.
const (
	virtualLabelSalt   = 0x9e3779b97f4a7c15
	virtualFeatureSalt = 0x94d049bb133111eb
	virtualIDMix       = 0xbf58476d1ce4e5b9
)

// VirtualPartition is a client population that exists only as a recipe:
// a Generator configuration (class geometry) plus a PartitionConfig
// (population size, per-client count distribution, label skew alpha).
// Unlike DirichletPartition it draws each client's label distribution
// independently — there is no shared sample pool to exhaust — which is what
// makes every client a pure function of its ID and lets populations scale
// to millions.
type VirtualPartition struct {
	gen *Generator
	cfg PartitionConfig
}

// NewVirtualPartition builds the recipe. The generator's prototypes are the
// only O(classes × dim) state allocated; no samples and no clients are.
func NewVirtualPartition(gen GeneratorConfig, cfg PartitionConfig) *VirtualPartition {
	if cfg.NumClients <= 0 {
		panic("data: NumClients must be positive")
	}
	if cfg.MinSamples <= 0 || cfg.MaxSamples < cfg.MinSamples {
		panic("data: invalid sample count bounds")
	}
	return &VirtualPartition{gen: NewGenerator(gen), cfg: cfg}
}

// NumClients returns the population size.
func (vp *VirtualPartition) NumClients() int { return vp.cfg.NumClients }

// Classes returns the label count of the underlying task.
func (vp *VirtualPartition) Classes() int { return vp.gen.cfg.Classes }

// Dim returns the flattened per-sample feature dimension.
func (vp *VirtualPartition) Dim() int { return vp.gen.dim }

// Generator exposes the underlying sample generator (e.g. to draw an i.i.d.
// test set with the same class geometry).
func (vp *VirtualPartition) Generator() *Generator { return vp.gen }

// labelSeed and featureSeed derive the two per-client stream seeds.
func (vp *VirtualPartition) labelSeed(id int) uint64 {
	return vp.cfg.Seed ^ virtualLabelSalt ^ (uint64(id+1) * virtualIDMix)
}

func (vp *VirtualPartition) featureSeed(id int) uint64 {
	return vp.gen.cfg.Seed ^ virtualFeatureSalt ^ (uint64(id+1) * virtualIDMix)
}

// sampleCount draws the client's clipped-normal sample count from rng; the
// clipping mirrors DirichletPartition (without its shared-pool starvation
// guard, which a virtual population does not need).
func (vp *VirtualPartition) sampleCount(rng *stats.RNG) int {
	want := int(rng.Normal(vp.cfg.MeanSamples, vp.cfg.StdSamples))
	if want < vp.cfg.MinSamples {
		want = vp.cfg.MinSamples
	}
	if want > vp.cfg.MaxSamples {
		want = vp.cfg.MaxSamples
	}
	return want
}

// labels replays the client's label stream, appending its N labels in draw
// order to dst and returning the extended slice. rng must be freshly seeded
// with labelSeed(id).
func (vp *VirtualPartition) labels(rng *stats.RNG, dst []int) []int {
	want := vp.sampleCount(rng)
	p := rng.Dirichlet(vp.cfg.Alpha, vp.gen.cfg.Classes)
	for i := 0; i < want; i++ {
		dst = append(dst, rng.Categorical(p))
	}
	return dst
}

// fill synthesizes client id's flyweight into c: its ID, sample count N and,
// tallied into counts (zeroed, one entry per class), its label histogram.
// rng is reseeded with the client's label stream first, so any RNG will do.
func (vp *VirtualPartition) fill(c *Client, counts []float64, id int, rng *stats.RNG) {
	rng.Reseed(vp.labelSeed(id))
	want := vp.sampleCount(rng)
	p := rng.Dirichlet(vp.cfg.Alpha, vp.gen.cfg.Classes)
	for i := 0; i < want; i++ {
		counts[rng.Categorical(p)]++
	}
	*c = Client{ID: id, N: want, Counts: counts}
}

// Client synthesizes the flyweight for one client: its ID, sample count N,
// and label histogram Counts. Indices stays nil — there is no backing
// dataset. Cost is O(N × classes) time and O(classes) memory; no features
// are generated. Safe for concurrent use with any other VirtualPartition
// method.
func (vp *VirtualPartition) Client(id int) *Client {
	if id < 0 || id >= vp.cfg.NumClients {
		panic(fmt.Sprintf("data: client id %d out of range [0,%d)", id, vp.cfg.NumClients))
	}
	c := new(Client)
	vp.fill(c, make([]float64, vp.gen.cfg.Classes), id, stats.NewRNG(0))
	return c
}

// Clients synthesizes the whole population's flyweights, fanning the
// per-client work across GOMAXPROCS goroutines. The result is deterministic
// (each client is a pure function of its ID) and position i holds client i.
// The population is two slabs, not two heap objects per client: one []Client
// and one histogram backing, of which each client's Counts is a window with
// its capacity capped so an append cannot reach a neighbour. At 100k clients
// that is what formation's pack step reads and what every GC cycle scans.
func (vp *VirtualPartition) Clients() []*Client {
	n, k := vp.cfg.NumClients, vp.gen.cfg.Classes
	slab, counts, clients := make([]Client, n), make([]float64, n*k), make([]*Client, n)
	parallelRanges(n, func(lo, hi int) {
		rng := stats.NewRNG(0)
		for id := lo; id < hi; id++ {
			vp.fill(&slab[id], counts[id*k:(id+1)*k:(id+1)*k], id, rng)
			clients[id] = &slab[id]
		}
	})
	return clients
}

// SampleBuffer is the caller-owned scratch a virtual client materializes
// into. Reusing one buffer across clients (as each engine worker does)
// makes the steady-state cost of materialization O(largest client), not
// O(sum of clients). The zero value is ready to use.
type SampleBuffer struct {
	x        []float64
	y        []int
	labelRng *stats.RNG
	featRng  *stats.RNG
}

// MaterializeInto synthesizes client id's full batch — features shaped
// [N, SampleShape...] plus the aligned label slice — into buf, growing its
// backing storage only when the client is larger than any seen before. The
// returned tensor and slice alias buf and are valid until the next
// MaterializeInto call on the same buffer.
//
// The output is bit-identical to the rows MaterializeAll writes for the
// same client, in the same order.
func (vp *VirtualPartition) MaterializeInto(id int, buf *SampleBuffer) (*tensor.Tensor, []int) {
	if id < 0 || id >= vp.cfg.NumClients {
		panic(fmt.Sprintf("data: client id %d out of range [0,%d)", id, vp.cfg.NumClients))
	}
	if buf.labelRng == nil {
		buf.labelRng = stats.NewRNG(0)
		buf.featRng = stats.NewRNG(0)
	}
	buf.labelRng.Reseed(vp.labelSeed(id))
	buf.y = vp.labels(buf.labelRng, buf.y[:0])
	n := len(buf.y)

	dim := vp.gen.dim
	if cap(buf.x) < n*dim {
		buf.x = make([]float64, n*dim)
	}
	buf.x = buf.x[:n*dim]
	buf.featRng.Reseed(vp.featureSeed(id))
	vp.synthRows(buf.featRng, buf.y, buf.x)

	shape := append([]int{n}, vp.gen.cfg.SampleShape...)
	return tensor.FromSlice(buf.x, shape...), buf.y
}

// synthRows fills x (len(y)×dim, row-major) with one synthesized sample per
// label in y, consuming the feature stream exactly as Generator.Sample does
// per sample: a mode draw then per-coordinate Gaussian noise.
func (vp *VirtualPartition) synthRows(rng *stats.RNG, y []int, x []float64) {
	g := vp.gen
	for i, cls := range y {
		mode := rng.IntN(g.cfg.Modes)
		proto := g.protos[cls*g.cfg.Modes+mode]
		row := x[i*g.dim : (i+1)*g.dim]
		for j := range row {
			row[j] = proto[j] + rng.Normal(0, g.cfg.Noise)
		}
	}
}

// Materialize synthesizes client id's batch into freshly allocated storage.
// It is the convenience form of MaterializeInto for cold paths; hot paths
// should hold a SampleBuffer.
func (vp *VirtualPartition) Materialize(id int) (*tensor.Tensor, []int) {
	var buf SampleBuffer
	x, y := vp.MaterializeInto(id, &buf)
	return x, append([]int(nil), y...)
}

// MaterializeAll expands the entire virtual population into a conventional
// (Dataset, clients) pair: client i's samples occupy a contiguous index
// range, Indices is populated, and Dataset.Batch(c.Indices) returns exactly
// what MaterializeInto(c.ID, …) synthesizes. This is the bridge the
// equivalence tests use; at million-client scale it is deliberately the
// thing you never call.
func (vp *VirtualPartition) MaterializeAll() (*Dataset, []*Client) {
	clients := vp.Clients()
	total := 0
	for _, c := range clients {
		total += c.N
	}
	ds := &Dataset{
		X:           make([]float64, total*vp.gen.dim),
		Y:           make([]int, 0, total),
		SampleShape: append([]int(nil), vp.gen.cfg.SampleShape...),
		Classes:     vp.gen.cfg.Classes,
	}
	rng := stats.NewRNG(0)
	off := 0
	for _, c := range clients {
		rng.Reseed(vp.labelSeed(c.ID))
		ds.Y = vp.labels(rng, ds.Y)
		rng.Reseed(vp.featureSeed(c.ID))
		rows := ds.X[off*vp.gen.dim : (off+c.N)*vp.gen.dim]
		vp.synthRows(rng, ds.Y[off:off+c.N], rows)
		c.Indices = make([]int, c.N)
		for i := range c.Indices {
			c.Indices[i] = off + i
		}
		off += c.N
	}
	return ds, clients
}

// parallelRanges covers [0, n) with one fn(lo, hi) call per GOMAXPROCS
// goroutine, in fixed index blocks. Used for population-wide synthesis where
// every index writes only its own slot; determinism holds because block
// boundaries are pure functions of n and what fn does at i is a pure
// function of i.
func parallelRanges(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	block := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*block, min((w+1)*block, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
