package fednode

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestRetryBackoffJitterSpreadsNodes(t *testing.T) {
	// After a partition heals, every client of an edge wakes in the same
	// backoff tick. The per-node seeded jitter must spread their first
	// retries across [base/2, base) instead of letting the cohort stampede
	// on one instant.
	const base = 40 * time.Millisecond
	const nodes = 16
	seen := make(map[time.Duration]bool)
	for id := 0; id < nodes; id++ {
		tag := fmt.Sprintf("client/%d", id)
		d := retryBackoff(base, 1, stats.NewRNG(dialSeed(42, tag)))
		if d < base/2 || d >= base {
			t.Fatalf("node %s first retry backoff %v outside [%v, %v)", tag, d, base/2, base)
		}
		seen[d] = true
	}
	if len(seen) < nodes/2 {
		t.Fatalf("%d nodes share only %d distinct backoff values: reconnect stampede within one tick", nodes, len(seen))
	}
}

func TestRetryBackoffDeterministicPerNode(t *testing.T) {
	schedule := func() []time.Duration {
		rng := stats.NewRNG(dialSeed(7, "client/3"))
		var s []time.Duration
		for i := 1; i <= 6; i++ {
			s = append(s, retryBackoff(25*time.Millisecond, i, rng))
		}
		return s
	}
	first, second := schedule(), schedule()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("retry %d: backoff %v then %v for the same node and seed", i+1, first[i], second[i])
		}
	}
}

func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	if d := retryBackoff(25*time.Millisecond, 12, nil); d != time.Second {
		t.Fatalf("unjittered backoff at attempt 12 = %v, want cap 1s", d)
	}
	rng := stats.NewRNG(1)
	if d := retryBackoff(25*time.Millisecond, 12, rng); d < 500*time.Millisecond || d >= time.Second {
		t.Fatalf("jittered capped backoff = %v, want [500ms, 1s)", d)
	}
	prev := time.Duration(0)
	for i := 1; i <= 5; i++ {
		d := retryBackoff(10*time.Millisecond, i, nil)
		if d <= prev && i > 1 && prev < time.Second {
			t.Fatalf("unjittered schedule not growing: attempt %d gave %v after %v", i, d, prev)
		}
		prev = d
	}
}

func TestConcurrentReconnectsAfterHeal(t *testing.T) {
	// A late listener models a healed partition: every client is already in
	// its retry loop when the edge comes back. All must reconnect, each on
	// its own jittered schedule.
	const clients = 8
	nw := NewMemNetwork()
	m := NewMeter(nil)

	accepted := make(chan net.Conn, clients)
	lnUp := make(chan struct{})
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		time.Sleep(50 * time.Millisecond)
		ln, err := nw.Listen("edge")
		close(lnUp)
		if err != nil {
			return
		}
		for i := 0; i < clients; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()

	var dialWG sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		dialWG.Add(1)
		go func(id int) {
			defer dialWG.Done()
			tag := fmt.Sprintf("client/%d", id)
			conn, err := DialRetry(nw, tag, "edge", 10, 10*time.Millisecond, m,
				stats.NewRNG(dialSeed(99, tag)))
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
				return
			}
			closeQuiet(conn)
		}(id)
	}
	dialWG.Wait()
	<-lnUp
	serveWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := m.reg.CounterValue("fel_net_dial_retries_total"); got == 0 {
		t.Fatal("no dial retries counted: the listener was late, clients must have retried")
	}
}

// scriptedListener fails its first Accepts with err, then serves the conns
// queued on it until closed.
type scriptedListener struct {
	fails int
	err   error
	conns chan net.Conn
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, l.err
	}
	if c, ok := <-l.conns; ok {
		return c, nil
	}
	return nil, net.ErrClosed
}

func (l *scriptedListener) Close() error   { return nil }
func (l *scriptedListener) Addr() net.Addr { return memAddr("scripted") }

// TestAcceptRetryRetriesFDExhaustion: a loaded TCP listener fails accepts
// with EMFILE or ENFILE, whose Timeout() is false; AcceptRetry backs off and
// retries them like a timeout, counting each retry, while any other error
// stays fatal.
func TestAcceptRetryRetriesFDExhaustion(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EMFILE, syscall.ENFILE} {
		server, client := net.Pipe()
		ln := &scriptedListener{
			fails: 2,
			err:   &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", errno)},
			conns: make(chan net.Conn, 1),
		}
		ln.conns <- server
		m := NewMeter(nil)
		conn, err := AcceptRetry(ln, 5, time.Millisecond, m)
		if err != nil || conn != server {
			t.Fatalf("%v: AcceptRetry = %v, %v; want the queued conn", errno, conn, err)
		}
		if got := m.reg.CounterValue("fel_net_accept_retries_total"); got != 2 {
			t.Fatalf("%v: fel_net_accept_retries_total = %d, want 2", errno, got)
		}
		closeQuiet(client)
		closeQuiet(server)
	}

	ln := &scriptedListener{fails: 1, err: net.ErrClosed, conns: make(chan net.Conn)}
	m := NewMeter(nil)
	if _, err := AcceptRetry(ln, 5, time.Millisecond, m); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("closed listener: AcceptRetry err = %v, want net.ErrClosed", err)
	}
	if got := m.reg.CounterValue("fel_net_accept_retries_total"); got != 0 {
		t.Fatalf("closed listener was retried %d times", got)
	}
}
