package data

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// This file implements the virtual (flyweight) client population: a
// million-client federation whose resident state is only the per-client
// label histograms. Features are never stored — they are synthesized
// deterministically from (seed, client ID) at the moment a client is
// selected for training, into storage the caller owns (DrawInto), so a
// global round's working set is O(selected clients) instead of O(population).
//
// Two independent RNG streams exist per client:
//
//   - the label stream, seeded from the partition seed and the client ID,
//     drives the sample count (clipped normal) and the per-sample labels
//     (Dirichlet(alpha) categorical draws). A flyweight consumes only this
//     stream, so histograms cost ~N categorical draws and two small slices.
//   - the feature stream, seeded from the generator seed and the client ID,
//     drives the mode choice and Gaussian noise of every synthesized sample,
//     reusing the Generator's class prototypes.
//
// Because both streams are pure functions of (seed, id), materializing a
// client twice — or materializing the whole population with MaterializeAll —
// yields bit-identical features and labels. That is the equivalence the core
// training tests pin down: training on a virtual population and on its
// materialized copy produces Float64bits-equal models.

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
	cfg.check()
	return &VirtualPartition{gen: NewGenerator(gen), cfg: cfg}
}

// NumClients returns the population size.
func (vp *VirtualPartition) NumClients() int { return vp.cfg.NumClients }

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

// labels starts client id's label stream on s: its sample count — clipped
// as DirichletPartition clips it, without its shared-pool starvation guard,
// which a virtual population does not need — and its label distribution,
// drawn into s and summed once, not once per label.
func (vp *VirtualPartition) labels(id int, s *Scratch) (rng *stats.RNG, p []float64, n int, total float64) {
	rng, p = s.ready(vp.gen.cfg.Classes)
	rng.Reseed(vp.labelSeed(id))
	n = vp.cfg.sampleCount(rng)
	rng.DirichletInto(p, vp.cfg.Alpha)
	return rng, p, n, stats.CategoricalTotal(p)
}

// fill synthesizes client id's flyweight into c: its ID, sample count N and,
// tallied into counts (zeroed, one entry per class), its label histogram.
func (vp *VirtualPartition) fill(c *Client, counts []float64, id int, s *Scratch) {
	rng, p, n, total := vp.labels(id, s)
	for range n {
		counts[rng.CategoricalSum(p, total)]++
	}
	*c = Client{ID: id, N: n, Counts: counts}
}

// Clients synthesizes the whole population's flyweights, fanning blocks of
// clients across cpu.Procs() goroutines, each with its own synthesis RNG. The
// result is deterministic (each client is a pure function of its ID, its RNG
// reseeded per client) and position i holds client i.
// The population is two slabs, not two heap objects per client: one []Client
// and one histogram backing, of which each client's Counts is a window with
// its capacity capped so an append cannot reach a neighbour. At 100k clients
// that is what formation's pack step reads and what every GC cycle scans.
func (vp *VirtualPartition) Clients() []*Client {
	n, k := vp.cfg.NumClients, vp.gen.cfg.Classes
	slab, counts, clients := make([]Client, n), make([]float64, n*k), make([]*Client, n)
	// Neighbouring clients share cache lines in all three slabs, so a worker
	// takes a run of them at a time, never a single client. For the same
	// reason each worker allocates its own scratch on its first run: two PCG
	// states allocated back to back share a line, and every draw would
	// bounce it between cores.
	const block = 1024
	scratch := make([]*Scratch, cpu.Procs())
	cpu.Each((n+block-1)/block, len(scratch), func(w, b int) {
		if scratch[w] == nil {
			scratch[w] = new(Scratch)
		}
		for id, hi := b*block, min((b+1)*block, n); id < hi; id++ {
			vp.fill(&slab[id], counts[id*k:(id+1)*k:(id+1)*k], id, scratch[w])
			clients[id] = &slab[id]
		}
	})
	return clients
}

// SampleBuffer is caller-owned storage a virtual client materializes into.
// Reusing one buffer across clients makes the steady-state cost of
// materialization O(largest client), not O(sum of clients). The zero value is
// ready to use.
type SampleBuffer struct {
	x []float64
	y []int
	s Scratch
}

// MaterializeInto synthesizes client id's full batch — features shaped
// [N, SampleShape...] plus the aligned label slice — into buf, growing its
// backing storage only when the client is larger than any seen before. The
// returned tensor and slice alias buf and are valid until the next
// MaterializeInto call on the same buffer. The rows are DrawInto's.
func (vp *VirtualPartition) MaterializeInto(id int, buf *SampleBuffer) (*tensor.Tensor, []int) {
	rng, _ := buf.s.ready(0)
	rng.Reseed(vp.labelSeed(id))
	n := vp.cfg.sampleCount(rng)
	buf.x, buf.y = tensor.Grow(buf.x, n*vp.gen.dim), tensor.Grow(buf.y, n)
	vp.DrawInto(id, buf.x, buf.y, &buf.s)
	return tensor.FromSlice(buf.x, append([]int{n}, vp.gen.cfg.SampleShape...)...), buf.y
}

// DrawInto synthesizes client id's rows into x and y: its label stream
// (count, Dirichlet distribution, one categorical draw per row) and then its
// feature stream, bit-identical to the rows MaterializeAll writes for it.
func (vp *VirtualPartition) DrawInto(id int, x []float64, y []int, s *Scratch) {
	if id < 0 || id >= vp.cfg.NumClients {
		panic(fmt.Sprintf("data: client id %d out of range [0,%d)", id, vp.cfg.NumClients))
	}
	rng, p, n, total := vp.labels(id, s)
	if len(y) != n || len(x) != n*vp.gen.dim {
		panic(fmt.Sprintf("data: client %d has %d rows of %d features, not %d labels and %d features", id, n, vp.gen.dim, len(y), len(x)))
	}
	for i := range y {
		y[i] = rng.CategoricalSum(p, total)
	}
	rng.Reseed(vp.featureSeed(id))
	vp.synthRows(rng, y, x)
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

// MaterializeAll expands the entire virtual population into rows held in
// memory, client by client, and their flyweights: the recipe of
// System.Materialize, whose clients draw by copying what DrawInto
// synthesizes for them. This is the bridge the equivalence tests use; at
// million-client scale it is deliberately the thing you never call.
func (vp *VirtualPartition) MaterializeAll() (Rows, []*Client) {
	clients := vp.Clients()
	h := &held{make([][]float64, len(clients)), make([][]int, len(clients))}
	var s Scratch
	for _, c := range clients {
		h.x[c.ID], h.y[c.ID] = make([]float64, c.N*vp.gen.dim), make([]int, c.N)
		vp.DrawInto(c.ID, h.x[c.ID], h.y[c.ID], &s)
	}
	return h, clients
}

// held is MaterializeAll's recipe: every client's rows, drawn and held.
type held struct {
	x [][]float64
	y [][]int
}

// DrawInto copies client id's held rows.
func (h *held) DrawInto(id int, x []float64, y []int, _ *Scratch) {
	if len(y) != len(h.y[id]) {
		panic(fmt.Sprintf("data: client %d has %d rows, not %d", id, len(h.y[id]), len(y)))
	}
	copy(x, h.x[id])
	copy(y, h.y[id])
}
