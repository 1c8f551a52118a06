// Package data provides the dataset substrate for the federated experiments:
// synthetic stand-ins for CIFAR-10 and SpeechCommands (the real datasets are
// not available offline; see DESIGN.md), the Dirichlet label-skew
// partitioner the paper uses to control the non-IID degree, and the
// client-side label histograms ("label matrix L") that CoV grouping
// consumes.
//
// A client population is flyweight clients (histogram + count) and a Rows
// recipe their rows are drawn from, into the consumer's storage, when a
// consumer trains them: the paper's partition (DirichletPartition on the
// labels Labels draws) keeps each assigned row's 16-byte stream mark
// (Generator.Marked), a virtual population (VirtualPartition) only its seeds
// — the form that scales to millions of clients.
package data

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Dataset is an in-memory labelled dataset. Features are stored row-major:
// sample i occupies X[i*dim : (i+1)*dim] where dim = prod(SampleShape).
type Dataset struct {
	X           []float64
	Y           []int
	SampleShape []int
	Classes     int
}

// Dim returns the flattened feature dimension of one sample.
func (d *Dataset) Dim() int {
	n := 1
	for _, s := range d.SampleShape {
		n *= s
	}
	return n
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Batch gathers the samples at the given indices into a tensor shaped
// [len(idx), SampleShape...] plus the aligned label slice.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	dim := d.Dim()
	shape := append([]int{len(idx)}, d.SampleShape...)
	x := tensor.New(shape...)
	y := make([]int, len(idx))
	for bi, i := range idx {
		if i < 0 || i >= d.Len() {
			panic(fmt.Sprintf("data: index %d out of range [0,%d)", i, d.Len()))
		}
		copy(x.Data[bi*dim:(bi+1)*dim], d.X[i*dim:(i+1)*dim])
		y[bi] = d.Y[i]
	}
	return x, y
}

// GeneratorConfig parameterizes a synthetic classification task.
type GeneratorConfig struct {
	// Classes is the number of labels.
	Classes int
	// SampleShape is the per-sample tensor shape, e.g. [3, 8, 8] for an
	// image-like task or [64] for a flat-feature task.
	SampleShape []int
	// Modes is the number of Gaussian prototypes per class; >1 makes the
	// class regions multi-modal (non-linearly separable).
	Modes int
	// Noise is the within-mode Gaussian noise sigma. Larger values cap the
	// achievable accuracy, mimicking the paper's 55–65 % CIFAR band.
	Noise float64
	// Seed fixes the prototypes and all sampling.
	Seed uint64
}

// Generator produces samples from a fixed mixture-of-Gaussians class
// structure. The same generator (same seed) yields the same class geometry,
// so train and test sets drawn from it are identically distributed.
type Generator struct {
	cfg    GeneratorConfig
	dim    int
	protos [][]float64 // [class*Modes + mode][dim]
}

// NewGenerator creates a generator with Seed-determined class prototypes.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if cfg.Classes <= 0 || cfg.Modes <= 0 {
		panic("data: Classes and Modes must be positive")
	}
	dim := 1
	for _, s := range cfg.SampleShape {
		dim *= s
	}
	g := &Generator{cfg: cfg, dim: dim}
	rng := stats.NewRNG(cfg.Seed)
	g.protos = make([][]float64, cfg.Classes*cfg.Modes)
	for i := range g.protos {
		g.protos[i] = g.makeProto(rng)
	}
	return g
}

// makeProto draws one class prototype. Flat tasks use i.i.d. Gaussian
// coordinates. Image-shaped tasks ([C, H, W]) use sums of random
// low-frequency cosine modes per channel so the class signal is spatially
// smooth — local convolution features followed by global pooling can then
// discriminate classes, as with natural images. (I.i.d. per-pixel
// prototypes carry no spatial structure and global pooling would average
// the signal away.)
func (g *Generator) makeProto(rng *stats.RNG) []float64 {
	p := make([]float64, g.dim)
	shape := g.cfg.SampleShape
	if len(shape) != 3 {
		for j := range p {
			p[j] = rng.Normal(0, 1)
		}
		return p
	}
	c, h, w := shape[0], shape[1], shape[2]
	const modes = 3
	for ci := 0; ci < c; ci++ {
		base := ci * h * w
		// Per-channel DC offset plus low-frequency cosine modes.
		dc := rng.Normal(0, 1)
		for m := 0; m < modes; m++ {
			fy := float64(rng.IntN(3)) // spatial frequencies 0..2
			fx := float64(rng.IntN(3))
			phy := float64(rng.Float64()) * 2 * math.Pi
			phx := float64(rng.Float64()) * 2 * math.Pi
			amp := rng.Normal(0, 1)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := amp *
						math.Cos(2*math.Pi*fy*float64(y)/float64(h)+float64(phy)) *
						math.Cos(2*math.Pi*fx*float64(x)/float64(w)+float64(phx))
					p[base+y*w+x] += float64(v)
				}
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p[base+y*w+x] += dc
			}
		}
	}
	// Normalize the prototype to unit per-coordinate variance so Noise has
	// a consistent meaning across task shapes.
	mean, ss := 0.0, 0.0
	for _, v := range p {
		mean += v
	}
	mean /= float64(len(p))
	for _, v := range p {
		d := v - mean
		ss += float64(d * d)
	}
	std := math.Sqrt(ss / float64(len(p)))
	if std > 0 {
		for j := range p {
			p[j] = (p[j] - mean) / std
		}
	}
	return p
}

// Sample draws n labelled samples with uniformly random labels, using a
// stream derived from the generator seed and tag (so distinct tags give
// independent datasets with the same class geometry).
func (g *Generator) Sample(n int, tag uint64) *Dataset {
	rng := g.stream(tag)
	ds := &Dataset{
		X:           make([]float64, n*g.dim),
		Y:           make([]int, n),
		SampleShape: append([]int(nil), g.cfg.SampleShape...),
		Classes:     g.cfg.Classes,
	}
	for i := 0; i < n; i++ {
		ds.Y[i] = g.row(rng, ds.X[i*g.dim:(i+1)*g.dim])
	}
	return ds
}

// Labels draws the stream Sample(n, tag) draws but keeps only each row's
// label and, in marks[i], the stream position row i starts at. The Dataset
// is label-only (X is nil): DirichletPartition accepts it, and Marked keeps
// the marks of the rows a partition assigns, from which each client draws
// its rows, bit for bit the ones Sample would have held.
func (g *Generator) Labels(n int, tag uint64) (ds *Dataset, marks []stats.Mark) {
	rng := g.stream(tag)
	ds = &Dataset{
		Y:           make([]int, n),
		SampleShape: append([]int(nil), g.cfg.SampleShape...),
		Classes:     g.cfg.Classes,
	}
	marks = make([]stats.Mark, n)
	for i := range marks {
		marks[i] = rng.Mark()
		ds.Y[i] = g.row(rng, nil)
	}
	return ds, marks
}

// Rows is a client population's recipe: what each client's rows are, not
// the rows. DrawInto writes client id's N rows — x its N×dim features,
// row-major, y its N labels — into storage the caller owns, on scratch s:
// the same bits every time, on any goroutine.
type Rows interface {
	DrawInto(id int, x []float64, y []int, s *Scratch)
}

// Scratch is what a draw runs on: an RNG, rewound or reseeded before every
// use, and a virtual client's label distribution. The zero value is ready;
// a Scratch serves one goroutine at a time.
type Scratch struct {
	rng *stats.RNG
	p   []float64
}

// ready returns s's RNG and a label-distribution slice of classes entries,
// building them on first use.
func (s *Scratch) ready(classes int) (*stats.RNG, []float64) {
	if s.rng == nil {
		s.rng = stats.NewRNG(0)
	}
	s.p = tensor.Grow(s.p, classes)
	return s.rng, s.p
}

// Marked is the recipe of a partition of a Labels pass: the marks of the rows
// DirichletPartition assigned, client by client (client i has ID i). A client
// draws, bit for bit, the rows Sample would have held there.
func (g *Generator) Marked(marks []stats.Mark, rows []int, clients []*Client) Rows {
	m := &marked{g: g, marks: make([]stats.Mark, len(rows)), offs: make([]int, len(clients)+1)}
	for k, i := range rows {
		m.marks[k] = marks[i]
	}
	for ci, c := range clients {
		m.offs[ci+1] = m.offs[ci] + c.N
	}
	return m
}

// marked is Generator.Marked's recipe: client id's marks are
// marks[offs[id]:offs[id+1]].
type marked struct {
	g     *Generator
	marks []stats.Mark
	offs  []int
}

// DrawInto redraws each of client id's rows from its mark.
func (m *marked) DrawInto(id int, x []float64, y []int, s *Scratch) {
	marks := m.marks[m.offs[id]:m.offs[id+1]]
	if len(y) != len(marks) {
		panic(fmt.Sprintf("data: client %d has %d rows, not %d", id, len(marks), len(y)))
	}
	rng, _ := s.ready(0)
	for j, mk := range marks {
		rng.Rewind(mk)
		y[j] = m.g.row(rng, x[j*m.g.dim:(j+1)*m.g.dim])
	}
}

// stream returns the RNG Sample(n, tag) draws its rows from.
func (g *Generator) stream(tag uint64) *stats.RNG {
	return stats.NewRNG(g.cfg.Seed ^ 0xabcdef).Split(tag)
}

// row draws the next row of a sample stream from rng and returns its label:
// the label, the mode, then one Gaussian noise draw per coordinate added to
// the mode's prototype in x. With x nil the noise draws are skipped
// (stats.RNG.SkipNormals), so the stream advances exactly as far as a stored
// row's would. This is the one definition of a row's draw order.
func (g *Generator) row(rng *stats.RNG, x []float64) int {
	cls := rng.IntN(g.cfg.Classes)
	proto := g.protos[cls*g.cfg.Modes+rng.IntN(g.cfg.Modes)]
	if x == nil {
		rng.SkipNormals(len(proto))
		return cls
	}
	for j := range x {
		x[j] = proto[j] + rng.Normal(0, g.cfg.Noise)
	}
	return cls
}

// SynthCIFARConfig is the CIFAR-10 stand-in: 10 classes of 3×8×8
// image-like samples with enough noise that a small model saturates around
// the paper's reported accuracy band.
func SynthCIFARConfig(seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Classes:     10,
		SampleShape: []int{3, 8, 8},
		Modes:       2,
		Noise:       1.8,
		Seed:        seed,
	}
}

// SynthSpeechConfig is the SpeechCommands stand-in: 35 classes of 1×12×12
// spectrogram-like samples; many classes plus high noise reproduce the
// unstable-convergence regime of the paper's Fig. 11.
func SynthSpeechConfig(seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Classes:     35,
		SampleShape: []int{1, 12, 12},
		Modes:       1,
		Noise:       2.4,
		Seed:        seed,
	}
}

// FlatConfig is a flat-feature task for fast tests and MLP-based
// experiments.
func FlatConfig(classes, dim int, seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Classes:     classes,
		SampleShape: []int{dim},
		Modes:       2,
		Noise:       1.6,
		Seed:        seed,
	}
}
