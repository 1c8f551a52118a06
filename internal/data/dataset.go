// Package data provides the dataset substrate for the federated experiments:
// synthetic stand-ins for CIFAR-10 and SpeechCommands (the real datasets are
// not available offline; see DESIGN.md), the Dirichlet label-skew
// partitioner the paper uses to control the non-IID degree, and the
// client-side label histograms ("label matrix L") that CoV grouping
// consumes.
//
// Client populations come in two equivalent representations: materialized
// (DirichletPartition partitions a pool's labels, drawn by Labels, and
// Redraw draws only the assigned rows' features, so the pool's features
// never exist; clients carry sample indices) and virtual (VirtualPartition,
// clients are flyweights carrying only histogram + count, samples
// synthesized deterministically from (seed, client ID) on selection). Training over either produces
// bit-identical results; the virtual form scales to millions of clients.
package data

import (
	"fmt"
	"math"

	"repro/internal/cpu"
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
// is label-only (X is nil): DirichletPartition accepts it, and Redraw turns
// the rows a partition assigns back into features, bit for bit the ones
// Sample would have held.
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

// Redraw builds the Dataset a materialized population trains on from the
// marks of a Labels pass and a partition of its labels: exactly the rows the
// clients' Indices name, clients in slice order and each client's rows in
// its Indices order, every row redrawn from its mark into its slot. Each
// Indices is rewritten, in place, to its contiguous range in the result.
// Clients are redrawn in parallel; every row is a pure function of its mark,
// so the result does not depend on the schedule.
func (g *Generator) Redraw(marks []stats.Mark, clients []*Client) *Dataset {
	offs := make([]int, len(clients)+1)
	for ci, c := range clients {
		offs[ci+1] = offs[ci] + len(c.Indices)
	}
	total := offs[len(clients)]
	ds := &Dataset{
		X:           make([]float64, total*g.dim),
		Y:           make([]int, total),
		SampleShape: append([]int(nil), g.cfg.SampleShape...),
		Classes:     g.cfg.Classes,
	}
	cpu.Each(len(clients), cpu.Procs(), func(_, ci int) {
		// Each client gets its own RNG, allocated here: RNGs allocated back
		// to back by the caller would share a cache line across workers.
		rng := stats.NewRNG(0)
		idx := clients[ci].Indices
		for j, i := range idx {
			at := offs[ci] + j
			rng.Rewind(marks[i])
			ds.Y[at] = g.row(rng, ds.X[at*g.dim:(at+1)*g.dim])
			idx[j] = at
		}
	})
	return ds
}

// stream returns the RNG Sample(n, tag) draws its rows from.
func (g *Generator) stream(tag uint64) *stats.RNG {
	return stats.NewRNG(g.cfg.Seed ^ 0xabcdef).Split(tag)
}

// row draws the next row of a sample stream from rng and returns its label:
// the label, the mode, then one Gaussian noise draw per coordinate added to
// the mode's prototype in x. With x nil every draw is made and dropped, so
// the stream advances exactly as far as a stored row's would. This is the
// one definition of a row's draw order.
func (g *Generator) row(rng *stats.RNG, x []float64) int {
	cls := rng.IntN(g.cfg.Classes)
	proto := g.protos[cls*g.cfg.Modes+rng.IntN(g.cfg.Modes)]
	if x == nil {
		for range proto {
			rng.Normal(0, g.cfg.Noise)
		}
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
