package cpu

import (
	"os"
	"runtime"
	"strings"
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
