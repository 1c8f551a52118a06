// Package leakcheck fails a test that leaves a goroutine running. It compares
// goroutine IDs, not counts: a goroutine started under the check that is
// still alive once the bound has passed is reported with its stack, whose
// "created by" frame names the spawn site, however many others have exited.
// The runtime never reuses an ID, so one leak is always seen.
//
// Main is a package's TestMain; Check brackets one test or one step of it.
// Only tests import this package.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
)

// settle bounds the wait for goroutines to exit: a joined goroutine may
// still be between its last signal and its return when its spawner returns.
const settle = 5 * time.Second

// Main runs m's tests and exits non-zero when they passed but left a
// goroutine behind.
func Main(m *testing.M) {
	before := running()
	code := m.Run()
	if code == 0 {
		if leaked := survivors(before, settle); leaked != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: goroutines outlived the tests:\n\n%s\n", bytes.Join(leaked, []byte("\n\n")))
			code = 1
		}
	}
	os.Exit(code)
}

// Check notes the goroutines running now; calling the function it returns
// fails t unless every goroutine started since has exited.
func Check(t testing.TB) func() {
	before := running()
	return func() {
		t.Helper()
		if leaked := survivors(before, settle); leaked != nil {
			t.Fatalf("goroutines leaked:\n\n%s", bytes.Join(leaked, []byte("\n\n")))
		}
	}
}

// survivors waits up to bound for every goroutine not in before to exit and
// returns the stacks of those that have not, os/signal's watcher aside.
func survivors(before map[string]bool, bound time.Duration) [][]byte {
	deadline := clock.Real.Now().Add(bound)
	for {
		var leaked [][]byte
		for _, block := range stacks() {
			if !before[id(block)] && !signalWatcher(block) {
				leaked = append(leaked, block)
			}
		}
		if leaked == nil || clock.Real.Now().After(deadline) {
			return leaked
		}
		clock.Real.Sleep(10 * time.Millisecond)
	}
}

// signalWatcher reports whether block is the goroutine os/signal starts at
// the first signal.Notify and never stops (the fuzzing engine calls Notify):
// the one goroutine whose "created by" frame is in package os/signal.
func signalWatcher(block []byte) bool {
	_, site, ok := bytes.Cut(block, []byte("\ncreated by "))
	return ok && bytes.HasPrefix(site, []byte("os/signal."))
}

// running returns the IDs of the goroutines alive now.
func running() map[string]bool {
	ids := make(map[string]bool)
	for _, block := range stacks() {
		ids[id(block)] = true
	}
	return ids
}

// stacks returns every goroutine's stack, one block each: runtime.Stack
// separates goroutines by a blank line.
func stacks() [][]byte {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return bytes.Split(buf[:n], []byte("\n\n"))
}

// id reads a block's goroutine ID off its header, "goroutine N [state]:"
// (or "goroutine N gp=... [state]:" at higher traceback levels).
func id(block []byte) string {
	header, _, _ := bytes.Cut(bytes.TrimPrefix(block, []byte("goroutine ")), []byte(" ["))
	n, _, _ := bytes.Cut(header, []byte(" "))
	return string(n)
}
