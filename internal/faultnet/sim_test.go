package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fednode"
)

// TestSimFiresInstantsTogetherInOrder: timers due at one instant fire
// together, in the order they were armed; a stopped timer never fires; each
// fires with the clock at exactly its instant; and the poller exits once no
// timer is pending.
func TestSimFiresInstantsTogetherInOrder(t *testing.T) {
	s := newSim()
	var mu sync.Mutex
	var got []string
	at := func(name string) func() {
		return func() {
			mu.Lock()
			got = append(got, name+"@"+s.Now().Sub(simEpoch).String())
			mu.Unlock()
		}
	}
	s.AfterFunc(30*time.Millisecond, at("c"))
	s.AfterFunc(10*time.Millisecond, at("a1"))
	s.AfterFunc(10*time.Millisecond, at("a2"))
	if !s.AfterFunc(20*time.Millisecond, at("stopped")).Stop() {
		t.Fatal("Stop of a pending timer reported false")
	}
	s.mu.Lock()
	idle := s.idle
	s.mu.Unlock()

	s.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"a1@10ms", "a2@10ms", "c@30ms"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	select {
	case <-idle:
	case <-time.After(5 * time.Second):
		t.Fatal("the poller still runs with no timer pending")
	}
}

// TestSimWaitsOutBusyGoroutines: simulated time does not move while any
// goroutine can run — a sleeper wakes only after a spinning goroutine has
// finished — and does move past goroutines parked on a mutex or a WaitGroup,
// which only another goroutine can release.
func TestSimWaitsOutBusyGoroutines(t *testing.T) {
	var held sync.Mutex
	held.Lock()
	var never sync.WaitGroup
	never.Add(1)
	parked := make(chan struct{}, 2)
	go func() { parked <- struct{}{}; held.Lock(); held.Unlock() }()
	go func() { parked <- struct{}{}; never.Wait() }()
	<-parked
	<-parked

	s := newSim()
	var spun atomic.Bool
	spinning := make(chan struct{})
	go func() {
		close(spinning)
		for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
		}
		spun.Store(true)
	}()
	<-spinning
	s.Sleep(time.Millisecond)
	if !spun.Load() {
		t.Fatal("simulated time moved while a goroutine was still running")
	}
	held.Unlock()
	never.Done()
}

// TestSimMovesPastEveryWaitingState: simulated time moves past a goroutine
// parked in each state of the waiting map that a test can enter and release
// again. The map matches goroutine-state text, which is not a Go API: a
// toolchain that renames one of these states fails here, through the
// wall-clock watchdog, instead of stalling a chaos run.
func TestSimMovesPastEveryWaitingState(t *testing.T) {
	cases := []struct {
		state string
		park  func(t *testing.T) (release func())
	}{
		{"chan send", func(*testing.T) func() {
			ch := make(chan int)
			go func() { ch <- 1 }()
			return func() { <-ch }
		}},
		{"chan receive", func(*testing.T) func() {
			ch := make(chan int)
			go func() { <-ch }()
			return func() { close(ch) }
		}},
		{"select", func(*testing.T) func() {
			a, b := make(chan int), make(chan int)
			go func() {
				select {
				case <-a:
				case <-b:
				}
			}()
			return func() { close(a) }
		}},
		{"sync.RWMutex.Lock", func(*testing.T) func() {
			var rw sync.RWMutex
			rw.RLock()
			go func() { rw.Lock(); rw.Unlock() }()
			return rw.RUnlock
		}},
		{"sync.RWMutex.RLock", func(*testing.T) func() {
			var rw sync.RWMutex
			rw.Lock()
			go func() { rw.RLock(); rw.RUnlock() }()
			return rw.Unlock
		}},
		{"sync.Cond.Wait", func(*testing.T) func() {
			var mu sync.Mutex
			cond := sync.NewCond(&mu)
			released := false
			go func() {
				mu.Lock()
				for !released {
					cond.Wait()
				}
				mu.Unlock()
			}()
			return func() {
				mu.Lock()
				released = true
				cond.Broadcast()
				mu.Unlock()
			}
		}},
		{"sleep", func(*testing.T) func() {
			var released atomic.Bool
			go func() {
				for !released.Load() {
					time.Sleep(time.Millisecond)
				}
			}()
			return func() { released.Store(true) }
		}},
		{"IO wait", func(t *testing.T) func() {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			go func() {
				if conn, err := ln.Accept(); err == nil {
					//lint:ignore dropped-error nothing dials the listener; a stray connection is dropped
					conn.Close()
				}
			}()
			return func() {
				if err := ln.Close(); err != nil {
					t.Errorf("close listener: %v", err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.state, func(t *testing.T) {
			if !waiting[tc.state] {
				t.Fatalf("%q is not in the waiting map", tc.state)
			}
			defer tc.park(t)()
			s := newSim()
			moved := make(chan struct{})
			go func() { s.Sleep(time.Millisecond); close(moved) }()
			select {
			case <-moved:
			case <-time.After(5 * time.Second):
				t.Fatalf("simulated time stood still beside a goroutine in %q", tc.state)
			}
		})
	}
}

// TestClosedConnLeavesNoTimer: closing either end of a connection under a
// Network disarms both of its deadlines, so a far deadline on a closed
// connection does not move the simulated clock once nothing else is pending.
func TestClosedConnLeavesNoTimer(t *testing.T) {
	nw := Wrap(fednode.NewMemNetwork(), &Plan{Name: "quiet"}, nil)
	ln, err := nw.ListenAs("srv", "s")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dialed, err := nw.DialFrom("a", "s")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	far := nw.clk.Now().Add(time.Hour)
	for _, c := range []net.Conn{dialed, accepted} {
		if err := c.SetDeadline(far); err != nil {
			t.Fatalf("set deadline: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if err := ln.Close(); err != nil {
		t.Fatalf("close listener: %v", err)
	}

	start := nw.clk.Now()
	nw.clk.Sleep(time.Millisecond)
	nw.clk.mu.Lock()
	idle := nw.clk.idle
	nw.clk.mu.Unlock()
	if idle != nil {
		select {
		case <-idle:
		case <-time.After(5 * time.Second):
			t.Fatal("the poller still runs with nothing pending")
		}
	}
	if got := nw.clk.Now().Sub(start); got != time.Millisecond {
		t.Fatalf("simulated time moved %v after a 1ms sleep: a closed connection left a deadline timer", got)
	}
}
