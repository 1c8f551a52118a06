package cpu

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestHasAVXMatchesKernel: Linux publishes its own reading of the same CPUID
// and XCR0 bits as the "avx" flag of /proc/cpuinfo. A probe that wrongly read
// false would cost the kernels silently — their tests skip without it.
func TestHasAVXMatchesKernel(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	want := false
	for _, line := range strings.Split(string(raw), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(flags) {
				want = want || f == "avx"
			}
			break
		}
	}
	if want = want && runtime.GOARCH == "amd64"; HasAVX != want {
		t.Fatalf("HasAVX = %v, /proc/cpuinfo on %s says %v", HasAVX, runtime.GOARCH, want)
	}
}

// TestEach holds the fan-out's contract over sizes and widths (0 = Procs()):
// every index runs exactly once, w stays below the effective width and never
// runs two calls at once, width 1 is the index-ordered loop on w 0, a panic
// at one index reaches the caller with its own value only after every other
// index has run, and an outermost call at width n runs every call beside
// every other, whatever the processor count.
func TestEach(t *testing.T) {
	t.Run("n8/width8/all-at-once", func(t *testing.T) {
		allAtOnce(t, 8, func(fn func(i int)) {
			Each(8, 8, func(_, i int) { fn(i) })
		})
	})
	for _, n := range []int{0, 1, 5, 100} {
		for _, width := range []int{0, 1, 2, 7} {
			eff := width
			if eff <= 0 {
				eff = Procs()
			}
			eff = min(eff, n)
			t.Run(fmt.Sprintf("n%d/width%d", n, width), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, max(eff, 1))
				var mu sync.Mutex
				var order []int
				Each(n, width, func(w, i int) {
					if w < 0 || w >= eff {
						t.Errorf("index %d ran on worker %d, want one of [0, %d)", i, w, eff)
						return
					}
					if busy[w].Swap(true) {
						t.Errorf("worker %d runs two calls at once", w)
					}
					defer busy[w].Store(false)
					runs[i].Add(1)
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					if width == 1 && w != 0 {
						t.Errorf("width 1 ran index %d on worker %d", i, w)
					}
				})
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
				if width == 1 && !slices.IsSorted(order) {
					t.Errorf("width 1 ran indices in order %v, want index order", order)
				}
				if n == 0 {
					return
				}
				bad := n / 2
				var others atomic.Int32
				boom := fmt.Errorf("index %d", bad)
				func() {
					defer func() {
						if r := recover(); r != boom {
							t.Errorf("recovered %v, want fn's own panic value %v", r, boom)
						}
						if got := others.Load(); got != int32(n-1) {
							t.Errorf("%d of the other %d indices had run when the panic reached the caller", got, n-1)
						}
					}()
					Each(n, width, func(w, i int) {
						if i == bad {
							panic(boom)
						}
						others.Add(1)
					})
				}()
			})
		}
	}
}

// allAtOnce runs n calls through fanout and fails unless every one of them
// had started before any returned.
func allAtOnce(t *testing.T, n int, fanout func(fn func(i int))) {
	t.Helper()
	var started atomic.Int32
	all := make(chan struct{})
	fanout(func(i int) {
		if started.Add(1) == int32(n) {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("index %d: %d of %d calls had started after 10s", i, started.Load(), n)
		}
	})
}

// TestPeers: every index runs exactly once, every call runs beside every
// other whatever the processor count — the property the networked stack's
// per-peer fan-outs rest on — without taking from Each's budget, and a panic
// at one index reaches the caller with its own value once every other index
// has run.
func TestPeers(t *testing.T) {
	allAtOnce(t, 8, func(fn func(i int)) {
		Peers(8, func(i int) {
			if h := budget.helpers.Load(); h != 0 {
				t.Errorf("index %d: Peers holds %d of Each's helper slots", i, h)
			}
			fn(i)
		})
	})
	for _, n := range []int{0, 1, 5} {
		runs := make([]atomic.Int32, n)
		Peers(n, func(i int) { runs[i].Add(1) })
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n %d: index %d ran %d times, want 1", n, i, got)
			}
		}
	}
	const n = 5
	var others atomic.Int32
	boom := fmt.Errorf("index 3")
	defer func() {
		if r := recover(); r != boom {
			t.Errorf("recovered %v, want fn's own panic value %v", r, boom)
		}
		if got := others.Load(); got != n-1 {
			t.Errorf("%d of the other %d indices had run when the panic reached the caller", got, n-1)
		}
	}()
	Peers(n, func(i int) {
		if i == 3 {
			panic(boom)
		}
		others.Add(1)
	})
}

// TestEachBudget holds the process-wide budget: three nested levels of Each
// never run more than Procs() innermost calls at once, whatever the inner
// widths ask for; a call nested while the budget is spent runs on its
// caller's goroutine in index order; the budget is back to zero after every
// call, a panicking one included; a call of effective width one counts as
// one in progress; and an outermost call wider than Procs() still runs every
// index at once.
func TestEachBudget(t *testing.T) {
	procs := Procs()
	drained := func(when string) {
		t.Helper()
		if c, h := budget.calls.Load(), budget.helpers.Load(); c != 0 || h != 0 {
			t.Errorf("%s: budget holds %d calls and %d helpers, want 0 and 0", when, c, h)
		}
	}
	for _, widths := range [][3]int{{0, 0, 0}, {0, 8, 8}, {procs, 3, 16}} {
		t.Run(fmt.Sprintf("nested/%d-%d-%d", widths[0], widths[1], widths[2]), func(t *testing.T) {
			var inFlight, high atomic.Int32
			var leaves atomic.Int32
			Each(6, widths[0], func(_, _ int) {
				Each(6, widths[1], func(_, _ int) {
					Each(6, widths[2], func(_, _ int) {
						now := inFlight.Add(1)
						for h := high.Load(); now > h && !high.CompareAndSwap(h, now); h = high.Load() {
						}
						for range 50 {
							runtime.Gosched()
						}
						inFlight.Add(-1)
						leaves.Add(1)
					})
				})
			})
			if got := leaves.Load(); got != 6*6*6 {
				t.Errorf("%d innermost calls ran, want %d", got, 6*6*6)
			}
			if h := int(high.Load()); h > procs {
				t.Errorf("%d innermost calls ran at once, want at most Procs() = %d", h, procs)
			}
			drained("after the nested calls")
		})
	}

	t.Run("spent-budget-runs-inline", func(t *testing.T) {
		// Every outer worker waits at the barrier until all have made their
		// nested call, so the outer helpers hold their slots throughout.
		m := max(procs, 2)
		var arrived atomic.Int32
		gate := make(chan struct{})
		Each(m, m, func(outer, _ int) {
			var ws, order []int
			Each(4, 4, func(w, i int) {
				ws = append(ws, w) // unsynchronised: the call must stay on this goroutine
				order = append(order, i)
			})
			if !slices.Equal(ws, []int{0, 0, 0, 0}) || !slices.Equal(order, []int{0, 1, 2, 3}) {
				t.Errorf("outer worker %d: a nested call with the budget spent ran indices %v on workers %v, want 0..3 on worker 0", outer, order, ws)
			}
			if arrived.Add(1) == int32(m) {
				close(gate)
			}
			select {
			case <-gate:
			case <-time.After(10 * time.Second):
				t.Errorf("outer worker %d: %d of %d workers arrived after 10s", outer, arrived.Load(), m)
			}
		})
		drained("after the spent-budget calls")
	})

	t.Run("panic-returns-slots", func(t *testing.T) {
		boom := fmt.Errorf("innermost")
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("recovered %v, want fn's own panic value %v", r, boom)
				}
			}()
			Each(4, 0, func(_, i int) {
				Each(4, 4, func(_, j int) {
					if i == 3 && j == 2 {
						panic(boom)
					}
				})
			})
		}()
		drained("after a panicking call")
	})

	t.Run("width-one-caller-counts", func(t *testing.T) {
		// A call of effective width one is still a call in progress: a call
		// nested in it draws on the budget and so on at most Procs() workers.
		n := procs + 2
		var top atomic.Int32
		Each(1, 0, func(_, _ int) {
			Each(n, n, func(w, _ int) {
				for m := top.Load(); int32(w) > m && !top.CompareAndSwap(m, int32(w)); m = top.Load() {
				}
			})
		})
		if w := int(top.Load()); w >= procs {
			t.Errorf("a call nested in a width-one call ran on worker %d, want one of [0, Procs() = %d)", w, procs)
		}
		drained("after the width-one call")
	})

	t.Run("outermost-runs-full-width", func(t *testing.T) {
		n := procs + 2
		allAtOnce(t, n, func(fn func(i int)) {
			Each(n, n, func(_, i int) { fn(i) })
		})
		drained("after the outermost call")
	})
}
