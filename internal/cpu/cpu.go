// Package cpu says what the processor offers the module's compute: whether
// the hand-written amd64 kernels (internal/tensor's row update,
// internal/grouping's scan filter) may run (HasAVX), how wide an in-process
// fan-out goes (Procs), and the two helpers every fan-out runs on: Each for
// compute, which shares one process-wide budget of Procs() goroutines over
// every nesting level, and Peers for the networked stack's per-peer waits,
// one goroutine per peer. It is what the program can observe and nothing a
// user can set.
package cpu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs is the effective processor count, min(GOMAXPROCS, NumCPU): the
// default width of Each, and the budget every compute fan-out in the module
// shares. GOMAXPROCS above the core count is pure oversubscription for
// compute-bound work: a medium-scale training round once ran at 0.60× the
// serial baseline with GOMAXPROCS=8 on one core before this cap.
func Procs() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// budget is what Each has handed out across the process: calls counts the
// fan-outs in progress, helpers the goroutines they started that still have
// indices to run.
var budget struct {
	calls, helpers atomic.Int64
}

// Each calls fn(w, i) once for every i in [0, n) on at most width
// goroutines, width <= 0 meaning Procs(). w in [0, min(width, n)) names the
// goroutine a call runs on, the caller's being 0, and two calls with the
// same w never overlap, so fn may keep per-worker state at index w. Worker w
// starts at index w and then takes the lowest index not yet handed out: at
// an effective width of one every call runs on the caller's goroutine, in
// index order.
//
// The width is a bound, not a promise. A call made while no other is in
// progress starts its width's helpers. Any other call — one nested in an fn,
// or one beside it — starts only the helpers the budget has free, Procs()
// less one for the caller less those running, and runs the rest of its
// indices on its caller. A helper gives its slot back once it runs out of
// indices, so at most Procs() goroutines run compute under an outermost call
// no wider than Procs(), however deep the fan-outs nest.
//
// A panicking call stops no other: once every index has run and every
// goroutine has returned, Each re-raises on the caller, with its own value,
// the first panic of the lowest-numbered worker that had one.
func Each(n, width int, fn func(w, i int)) {
	if width <= 0 {
		width = Procs()
	}
	width = min(width, n)
	first := budget.calls.Add(1) == 1
	defer budget.calls.Add(-1)
	if width <= 1 {
		// Counted all the same: what it nests is not outermost.
		fan(n, 1, fn, false)
		return
	}
	helpers := width - 1
	if first {
		budget.helpers.Add(int64(helpers))
	} else {
		helpers = claim(helpers)
	}
	fan(n, 1+helpers, fn, true)
}

// claim takes up to want of the budget's free helper slots and returns how
// many it took.
func claim(want int) int {
	free := int64(Procs() - 1)
	for {
		h := budget.helpers.Load()
		got := min(int64(want), free-h)
		if got <= 0 {
			return 0
		}
		if budget.helpers.CompareAndSwap(h, h+got) {
			return int(got)
		}
	}
}

// Peers calls fn(i) once for every i in [0, n), each on a goroutine of its
// own — the caller's runs index 0 — and all at once, whatever the processor
// count: the networked stack's per-peer fan-outs, whose calls wait on one
// another's I/O. They take nothing from Each's budget. Panics are Each's: a
// panicking call stops no other, and the lowest index's value reaches the
// caller once every goroutine has returned.
func Peers(n int, fn func(i int)) {
	fan(n, n, func(_, i int) { fn(i) }, false)
}

// fan runs fn over [0, n) on the caller as worker 0 and width-1 helper
// goroutines; a budgeted helper gives its slot back when it returns.
func fan(n, width int, fn func(w, i int), budgeted bool) {
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
	work := func(w int) {
		for i := w; i < n; i = int(next.Add(1) - 1) {
			if p := call(fn, w, i); p != nil && panics[w] == nil {
				panics[w] = p
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer wg.Done()
			if budgeted {
				defer budget.helpers.Add(-1)
			}
			work(w)
		}()
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
