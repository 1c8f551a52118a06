// Package cpu says what the processor offers the module's compute: whether
// the hand-written amd64 kernels (internal/tensor's row update,
// internal/grouping's scan filter) may run (HasAVX), how wide an in-process
// fan-out goes (Procs), and the one helper every such fan-out runs on
// (Each). It is what the program can observe and nothing a user can set.
package cpu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs is the effective processor count, min(GOMAXPROCS, NumCPU): the
// default width of Each, and so of every compute fan-out in the module.
// GOMAXPROCS above the core count is pure oversubscription for compute-bound
// work: a medium-scale training round once ran at 0.60× the serial baseline
// with GOMAXPROCS=8 on one core before this cap.
func Procs() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// Each calls fn(w, i) once for every i in [0, n) on at most width
// goroutines, width <= 0 meaning Procs(). w in [0, min(width, n)) names the
// goroutine a call runs on, the caller's being 0, and two calls with the
// same w never overlap, so fn may keep per-worker state at index w. Worker w
// starts at index w and then takes the lowest index not yet handed out: at
// width n every call runs beside every other, and at an effective width of
// one every call runs on the caller's goroutine, in index order.
//
// A panicking call stops no other: once every index has run and every
// goroutine has returned, Each re-raises on the caller, with its own value,
// the first panic of the lowest-numbered worker that had one.
func Each(n, width int, fn func(w, i int)) {
	if width <= 0 {
		width = Procs()
	}
	width = min(width, n)
	if width <= 1 {
		var first any
		for i := 0; i < n; i++ {
			if p := call(fn, 0, i); p != nil && first == nil {
				first = p
			}
		}
		raise(first)
		return
	}
	var next atomic.Int64
	next.Store(int64(width))
	panics := make([]any, width) // worker w's first panic value
	var wg sync.WaitGroup
	wg.Add(width)
	work := func(w int) {
		defer wg.Done()
		for i := w; i < n; i = int(next.Add(1) - 1) {
			if p := call(fn, w, i); p != nil && panics[w] == nil {
				panics[w] = p
			}
		}
	}
	for w := 1; w < width; w++ {
		go work(w)
	}
	work(0)
	wg.Wait()
	for _, p := range panics {
		raise(p)
	}
}

// call runs fn(w, i) and returns the value it panicked with, nil when it
// returned: panic(nil) recovers as a *runtime.PanicNilError, never as nil.
func call(fn func(w, i int), w, i int) (p any) {
	defer func() { p = recover() }()
	fn(w, i)
	return nil
}

// raise re-raises a recovered panic value, if any.
func raise(p any) {
	if p != nil {
		//lint:ignore panic-message the value is fn's own, re-raised unchanged on Each's caller
		panic(p)
	}
}
