package faultnet

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
)

// sim is the simulated clock every Network runs on. Its time stands still
// while anything in the process can still make progress, and jumps to the
// earliest pending timer once nothing can: then every timer due at that
// instant fires together, in the order it was armed. Local SGD, encoding and
// the protocol's own handshakes therefore take no simulated time, and a
// plan's delays, heals and deadlines cost none of the wall clock.
//
// "Nothing can make progress" is read off the whole process, not off
// faultnet's own connections: fednode also blocks on WaitGroups, mutexes and
// the accepted ends of MemNetwork connections. A poller goroutine, alive while a timer is
// pending, scans every goroutine's state (runtime.Stack) and calls the
// process quiescent when all of them but itself are waiting. Kernel buffers
// hide in-flight bytes from that scan, so only in-process transports
// (fednode's MemNetwork) may run under it.
type sim struct {
	mu     sync.Mutex
	now    time.Time
	timers []*simTimer   // pending, by instant, then in arming order
	calls  uint64        // Now and AfterFunc calls so far: a cheap sign of life
	idle   chan struct{} // closed when the running poller exits; nil when none runs
}

// simEpoch is where simulated time starts. Any instant works except the zero
// time, which means "no deadline" to a net.Conn.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func newSim() *sim { return &sim{now: simEpoch} }

// Now returns the simulated instant.
func (s *sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	return s.now
}

// Sleep blocks until d of simulated time has passed.
func (s *sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	woke := make(chan struct{})
	s.AfterFunc(d, func() { close(woke) })
	<-woke
}

// AfterFunc runs f on the poller once d of simulated time has passed. A timer
// armed with d <= 0 fires on the poller's next pass, without waiting for
// quiescence.
func (s *sim) AfterFunc(d time.Duration, f func()) clock.Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	t := &simTimer{s: s, when: s.now.Add(max(d, 0)), f: f}
	i, _ := slices.BinarySearchFunc(s.timers, t.when, func(p *simTimer, when time.Time) int {
		if p.when.After(when) {
			return 1
		}
		return -1 // an equal instant sorts before: it was armed earlier
	})
	s.timers = slices.Insert(s.timers, i, t)
	if s.idle == nil {
		s.idle = make(chan struct{})
		// poll sets s.idle to nil before it exits: the literal closes the
		// channel it was started with.
		go func(idle chan struct{}) {
			defer close(idle)
			s.poll()
		}(s.idle)
	}
	return t
}

// poll moves simulated time until no timer is pending, then exits. A scan
// stops the world, so a look that finds the clock used since the previous
// look skips it: something was still running.
func (s *sim) poll() {
	var buf []byte
	var seen uint64
	yields := minYields
	for {
		s.mu.Lock()
		if len(s.timers) == 0 {
			s.idle = nil
			s.mu.Unlock()
			return
		}
		due := !s.timers[0].when.After(s.now)
		used := s.calls != seen
		seen = s.calls
		s.mu.Unlock()
		if !due && (used || !quiescent(&buf)) {
			yields = pause(yields)
			continue
		}
		s.fire(!due)
		yields = minYields
	}
}

// The poller's pause between looks: runtime.Gosched yields, growing fourfold
// from minYields to maxYields, so a burst of work that ends within
// microseconds is seen within microseconds (a wall-clock sleep lasts about a
// millisecond at best); past maxYields, sleeps of one scanGap.
const (
	minYields = 16
	maxYields = 4096
	scanGap   = time.Millisecond
)

// pause waits one step of the backoff and returns the next step's yields.
func pause(yields int) int {
	if yields > maxYields {
		clock.Real.Sleep(scanGap)
		return yields
	}
	for i := 0; i < yields; i++ {
		runtime.Gosched()
	}
	return 4 * yields
}

// fire runs every timer due now, in arming order; with advance (the process
// was just seen quiescent) it first moves the clock to the earliest pending
// timer.
func (s *sim) fire(advance bool) {
	s.mu.Lock()
	if advance && len(s.timers) > 0 && s.timers[0].when.After(s.now) {
		s.now = s.timers[0].when
	}
	n := 0
	for n < len(s.timers) && !s.timers[n].when.After(s.now) {
		n++
	}
	due := slices.Clone(s.timers[:n])
	s.timers = slices.Delete(s.timers, 0, n)
	s.mu.Unlock()
	for _, t := range due {
		t.f()
	}
}

// waiting lists the goroutine states that only another goroutine, a timer or
// I/O can end: parked on a channel, a select, a sync lock, a WaitGroup, a
// sleep or network I/O. Running, runnable, in a syscall, and every
// runtime-internal state count as busy — among them a bare "semacquire",
// which is how an allocating goroutine waits for the garbage collector
// (whose workers the scan does not show).
var waiting = map[string]bool{
	"chan receive": true, "chan send": true,
	"chan receive (nil chan)": true, "chan send (nil chan)": true,
	"select": true, "select (no cases)": true,
	"sync.Mutex.Lock": true, "sync.RWMutex.Lock": true, "sync.RWMutex.RLock": true,
	"sync.WaitGroup.Wait": true, "sync.Cond.Wait": true,
	"sleep": true, "IO wait": true,
}

// pollFrame names the poller in a stack trace: every simulator's poller is
// left out of the scan, its own included.
var pollFrame = []byte("faultnet.(*sim).poll(")

// quiescent reports whether every goroutine of the process except the
// simulators' pollers is waiting. buf is the scan's reused buffer.
func quiescent(buf *[]byte) bool {
	n := runtime.Stack(*buf, true)
	for n == len(*buf) {
		*buf = make([]byte, 2*len(*buf)+64<<10)
		n = runtime.Stack(*buf, true)
	}
	// Goroutine blocks are separated by a blank line, each opening with
	// "goroutine N [state, ...]:".
	rest := (*buf)[:n]
	for len(rest) > 0 {
		block, next, _ := bytes.Cut(rest, []byte("\n\n"))
		rest = next
		open := bytes.IndexByte(block, '[')
		end := bytes.IndexByte(block, ']')
		if open < 0 || end < open || bytes.Contains(block, pollFrame) {
			continue
		}
		state, _, _ := bytes.Cut(block[open+1:end], []byte(", "))
		if !waiting[string(state)] {
			return false
		}
	}
	return true
}

// simTimer is one AfterFunc call.
type simTimer struct {
	s    *sim
	when time.Time
	f    func()
}

// Stop removes the timer if it is still pending.
func (t *simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	i := slices.Index(t.s.timers, t)
	if i >= 0 {
		t.s.timers = slices.Delete(t.s.timers, i, i+1)
	}
	return i >= 0
}
