package leakcheck

import (
	"bytes"
	"errors"
	"os"
	"os/signal"
	"sync"
	"testing"
	"time"
)

// blockedSend starts a goroutine that sends on a channel no one receives
// from.
func blockedSend(ch chan int) {
	go func() { ch <- 1 }()
}

// blockedRecv starts a goroutine that waits on a channel no one sends on.
func blockedRecv(ch chan int) {
	go func() { <-ch }()
}

// earlyReturn starts a worker that hands back its result on an unbuffered
// channel, then returns on an error before it receives: the worker's send
// never completes.
func earlyReturn(ch chan int, err error) error {
	go func() { ch <- 1 }()
	if err != nil {
		return err
	}
	<-ch
	return nil
}

// joined starts a goroutine and waits for it.
func joined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

// TestSurvivors: each leak is reported with the frame that created it, and a
// joined goroutine is not reported. The leaks are released afterwards, so
// the test itself leaves nothing behind.
func TestSurvivors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spawn func(ch chan int)
		site  string // the "created by" frame; empty: no leak
	}{
		{"blocked send", blockedSend, "created by repro/internal/leakcheck.blockedSend"},
		{"blocked receive", blockedRecv, "created by repro/internal/leakcheck.blockedRecv"},
		{"early return", func(ch chan int) {
			if err := earlyReturn(ch, errors.New("bad input")); err == nil {
				t.Error("earlyReturn did not fail")
			}
		}, "created by repro/internal/leakcheck.earlyReturn"},
		{"joined", func(chan int) { joined() }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch := make(chan int)
			before := running()
			tc.spawn(ch)
			bound := settle
			if tc.site != "" {
				bound = 100 * time.Millisecond
			}
			leaked := survivors(before, bound)
			if tc.site == "" {
				if leaked != nil {
					t.Fatalf("a joined goroutine was reported:\n%s", bytes.Join(leaked, []byte("\n\n")))
				}
				return
			}
			if len(leaked) != 1 || !bytes.Contains(leaked[0], []byte(tc.site)) {
				t.Fatalf("want one survivor %s, got %d:\n%s", tc.site, len(leaked), bytes.Join(leaked, []byte("\n\n")))
			}
			select { // release the leak
			case ch <- 1:
			case <-ch:
			}
			if leaked := survivors(before, settle); leaked != nil {
				t.Fatalf("the released goroutine is still reported:\n%s", bytes.Join(leaked, []byte("\n\n")))
			}
		})
	}
}

// TestSignalWatcherExempt: os/signal's watcher, which the first
// signal.Notify starts and nothing stops (a fuzzing run's engine calls
// Notify), is the one goroutine the check lets outlive a test. It is the
// only live goroutine the exemption matches, a stack that merely passes
// through os/signal is not exempt, and a goroutine the test starts is still
// reported beside the watcher.
func TestSignalWatcherExempt(t *testing.T) {
	before := running()
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	defer signal.Stop(c)
	var exempt [][]byte
	for _, block := range stacks() {
		if signalWatcher(block) {
			exempt = append(exempt, block)
		}
	}
	if len(exempt) != 1 {
		t.Fatalf("the exemption matches %d live goroutines, want os/signal's watcher alone:\n%s", len(exempt), bytes.Join(exempt, []byte("\n\n")))
	}
	passing := []byte("goroutine 9 [chan receive]:\nos/signal.Notify(...)\ncreated by repro/internal/leakcheck.spawn in goroutine 8")
	if signalWatcher(passing) {
		t.Errorf("a goroutine the test created is exempt because its stack runs through os/signal")
	}

	ch := make(chan int)
	blockedRecv(ch)
	leaked := survivors(before, 100*time.Millisecond)
	const site = "created by repro/internal/leakcheck.blockedRecv"
	if len(leaked) != 1 || !bytes.Contains(leaked[0], []byte(site)) {
		t.Fatalf("want one survivor %s, got %d:\n%s", site, len(leaked), bytes.Join(leaked, []byte("\n\n")))
	}
	ch <- 1
}

func TestMain(m *testing.M) { Main(m) }
