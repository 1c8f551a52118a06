package core

import (
	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Evaluate computes accuracy and mean loss of model on ds, batching to
// bound memory. batch <= 0 defaults to 256.
//
// Batches are scored in parallel across cpu.Procs() model clones, each batch
// writing into its own indexed slot; the final reduction runs in batch
// order, so the result is bit-identical to a serial evaluation at any
// parallelism.
func Evaluate(model *nn.Sequential, ds *data.Dataset, batch int) (acc, loss float64) {
	return newEvaluator(model.Clone(), ds, batch).run(model.ParamVector())
}

// evaluator scores parameter vectors on one test set out of storage it
// keeps: the rows of ds are contiguous and a forward pass only reads its
// input, so each batch is a view over ds.X instead of a gathered copy, and
// the per-worker models recycle their layer buffers. A Trainer that evaluates
// every round builds one and, after the first run, allocates nothing
// model- or batch-sized again.
type evaluator struct {
	// n is the test-set size; xs[bi] and ys[bi] view its rows and labels
	// [bi·batch, min((bi+1)·batch, n)).
	n  int
	xs []*tensor.Tensor
	ys [][]int
	// workers[w] scores the batches goroutine w of a run's fan-out takes.
	workers []*evalWorker
	// correct and losses are the per-batch slots the reduction reads in
	// batch order.
	correct []int
	losses  []float64
}

// evalWorker is one scoring goroutine's private state.
type evalWorker struct {
	model *nn.Sequential
	probs *tensor.Tensor
}

// newEvaluator builds an evaluator over ds. The model becomes the
// evaluator's: the first worker scores on it, the others on clones of it.
func newEvaluator(model *nn.Sequential, ds *data.Dataset, batch int) *evaluator {
	if batch <= 0 {
		batch = 256
	}
	n, dim := ds.Len(), ds.Dim()
	nb := (n + batch - 1) / batch
	e := &evaluator{
		n:       n,
		xs:      make([]*tensor.Tensor, nb),
		ys:      make([][]int, nb),
		correct: make([]int, nb),
		losses:  make([]float64, nb),
	}
	for bi := range e.xs {
		lo := bi * batch
		hi := min(lo+batch, n)
		shape := append([]int{hi - lo}, ds.SampleShape...)
		e.xs[bi] = tensor.FromSlice(ds.X[lo*dim:hi*dim], shape...)
		e.ys[bi] = ds.Y[lo:hi]
	}
	e.workers = []*evalWorker{{model: model}}
	return e
}

// run returns the accuracy and mean loss of the model with the given
// parameters. The fixed row partition, the per-batch l·rows term and the
// batch-order reduction make the result independent of the worker count.
func (e *evaluator) run(params []float64) (acc, loss float64) {
	nb := len(e.xs)
	if nb == 0 {
		return 0, 0
	}
	workers := min(cpu.Procs(), nb)
	for len(e.workers) < workers {
		e.workers = append(e.workers, &evalWorker{model: e.workers[0].model.Clone()})
	}
	for _, w := range e.workers[:workers] {
		w.model.SetParamVector(params)
	}
	cpu.Each(nb, workers, func(w, bi int) { e.score(e.workers[w], bi) })
	tc := 0
	tl := 0.0
	for bi := 0; bi < nb; bi++ {
		tc += e.correct[bi]
		tl += e.losses[bi]
	}
	return float64(tc) / float64(e.n), tl / float64(e.n)
}

// score runs batch bi through w's model and fills the batch's slots.
func (e *evaluator) score(w *evalWorker, bi int) {
	y := e.ys[bi]
	logits := w.model.Forward(e.xs[bi], false)
	rows, classes := logits.Shape[0], logits.Shape[1]
	w.probs = tensor.Resize(w.probs, rows, classes)
	var lossFn nn.SoftmaxCrossEntropy
	e.losses[bi] = lossFn.ForwardInto(w.probs, logits, y) * float64(rows)
	c := 0
	for i, label := range y {
		row := logits.Data[i*classes : (i+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == label {
			c++
		}
	}
	e.correct[bi] = c
}
