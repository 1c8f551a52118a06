package core

import "sync"

// spare is what finished runs on a System leave for the next run on it:
// group-round machines, idle workers, selection-slot group vectors and
// test-set evaluators. Trainer.Finish hands its run's storage back, and a run
// takes from here before it builds any of its own. So a run that follows
// another — the next job, a serial rerun of the same seed — trains and
// scores in what the first one grew instead of allocating its own beside the
// first's uncollected remains, and its peak heap does not hinge on whether a
// collection fell between the two. Everything here is overwritten before it
// is read — a machine by begin (engine rule 3), a worker by Load and Train
// (rule 1), a slot vector by begin, an evaluator's models by run — so which
// run grew it cannot reach a result.
type spare struct {
	mu      sync.Mutex
	spaces  []*groupSpace
	workers []*Worker
	vecs    [][]float64
	evals   []*evaluator
}

// take pops the last entry of list, one of s's lists; ok is false when it
// is empty.
func take[T any](s *spare, list *[]T) (v T, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(*list)
	if n == 0 {
		return v, false
	}
	v = (*list)[n-1]
	clear((*list)[n-1:])
	*list = (*list)[:n-1]
	return v, true
}

// release hands the engine's machines, slot vectors and idle workers to its
// System's spare list once the run is over. A machine on the list refers to
// no engine, so the finished run's configuration, updater and metrics go
// with it; the engine itself starts empty again.
func (e *engine) release() {
	s := &e.sys.spare
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range e.spaces {
		sp.e = nil
		s.spaces = append(s.spaces, sp)
	}
	for _, v := range e.slots {
		if v != nil {
			s.vecs = append(s.vecs, v)
		}
	}
	for {
		select {
		case w := <-e.workers.free:
			s.workers = append(s.workers, w)
		default:
			e.spaces, e.slots, e.updates = nil, nil, nil
			e.workers = newWorkerPool(e.sys, e.max)
			return
		}
	}
}

// release hands the finished run's evaluator, and the engine's storage when
// it trained in process, to the System's spare list.
func (tr *Trainer) release() {
	if e, ok := tr.exec.(*engine); ok {
		e.release()
	}
	if tr.eval == nil {
		return
	}
	s := &tr.plan.sys.spare
	s.mu.Lock()
	s.evals = append(s.evals, tr.eval)
	s.mu.Unlock()
	tr.eval = nil
}
