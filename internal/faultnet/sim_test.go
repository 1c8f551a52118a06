package faultnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
