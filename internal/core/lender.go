package core

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/data"
	"repro/internal/nn"
)

// lender is a System's one lender of run storage: the Workers that train
// clients (the engine's and fednode's clients' alike), the group-round
// machines of a RunGroups fan-out, the selection-slot vectors a Step's group
// models land in, and the evaluator that scores global models. Each piece is
// borrowed by the call that uses it and given back before that call returns,
// so no run holds storage between calls: a run dropped without Finish
// strands nothing, runs in turn on one System train in one set, and
// concurrent runs share at most cpu.Procs() Workers. Everything is
// overwritten before it is read — a Worker by Load and Train (engine rule 1),
// a machine and a slot vector by begin (rule 3), the evaluator's models by
// run — so which run built a piece cannot reach a result.
type lender struct {
	mu sync.Mutex
	// workers are the idle Workers of the built ones, at most workerCap; a
	// borrower waits on back while none is idle at the cap. No borrower
	// holds two Workers at once, so the wait ends.
	workers []*Worker
	built   int
	asked   int // the widest engine on the System (testUncapWorkers)
	back    sync.Cond
	spaces  []*groupSpace
	vecs    [][]float64

	// evalMu is held by the one run scoring on eval at a time: a run's
	// scoring already fans out over cpu.Procs().
	evalMu sync.Mutex
	eval   *evaluator
}

// workerCap is how many Workers the lender builds: cpu.Procs(), which the
// test binary's testUncapWorkers lifts to the widest engine on the System.
func (l *lender) workerCap() int {
	if testUncapWorkers {
		return max(cpu.Procs(), l.asked)
	}
	return cpu.Procs()
}

// BorrowWorker lends one of the System's Workers: an idle one, a new one
// while fewer than cpu.Procs() exist, or else the next one given back. Give
// it back with ReturnWorker once the client's update has been read out of
// its Model, and hold no second Worker meanwhile.
func (s *System) BorrowWorker() *Worker {
	l := &s.lend
	l.mu.Lock()
	if l.back.L == nil {
		l.back.L = &l.mu
	}
	for len(l.workers) == 0 && l.built >= l.workerCap() {
		l.back.Wait()
	}
	if n := len(l.workers); n > 0 {
		w := l.workers[n-1]
		l.workers = l.workers[:n-1]
		l.mu.Unlock()
		return w
	}
	l.built++
	l.mu.Unlock()
	return &Worker{Model: s.NewModel(s.ModelSeed), arena: newSGDArena()}
}

// ReturnWorker gives w back to the System; its borrower may not touch it
// afterwards.
func (s *System) ReturnWorker(w *Worker) {
	l := &s.lend
	l.mu.Lock()
	l.workers = append(l.workers, w)
	l.mu.Unlock()
	l.back.Signal()
}

// take lends n pieces off list, free ones first, then ones from build, in
// dst's backing array.
func take[T any](l *lender, list *[]T, dst []T, n int, build func() T) []T {
	l.mu.Lock()
	k := len(*list) - min(n, len(*list))
	dst = append(dst[:0], (*list)[k:]...)
	clear((*list)[k:])
	*list = (*list)[:k]
	l.mu.Unlock()
	for len(dst) < n {
		dst = append(dst, build())
	}
	return dst
}

// give takes pieces back onto list and clears them out of the borrower's
// slice, so it keeps no reference to them.
func give[T any](l *lender, list *[]T, pieces []T) {
	l.mu.Lock()
	*list = append(*list, pieces...)
	l.mu.Unlock()
	clear(pieces)
}

// stock builds the System's evaluator on model, the first Trainer's global
// init, so scoring builds no model of its own.
func (l *lender) stock(model *nn.Sequential, test *data.Dataset) {
	l.evalMu.Lock()
	defer l.evalMu.Unlock()
	if l.eval == nil {
		l.eval = newEvaluator(model, test, 0)
	}
}

// evaluate scores params on the System's evaluator, which a Trainer has
// stocked.
func (l *lender) evaluate(params []float64) (acc, loss float64) {
	l.evalMu.Lock()
	defer l.evalMu.Unlock()
	return l.eval.run(params)
}
