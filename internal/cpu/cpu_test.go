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
)

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
// runs two calls at once, width 1 is the index-ordered loop on w 0, and a
// panic at one index reaches the caller with its own value only after every
// other index has run.
func TestEach(t *testing.T) {
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
