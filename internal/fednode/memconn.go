package fednode

import (
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/clock"
)

// memBuffer is how many bytes one direction of a MemNetwork connection holds
// before its writer blocks: the default capacity of pipe(2).
const memBuffer = 64 << 10

// memConn is one end of a MemNetwork connection: a full-duplex byte stream
// whose every direction is a memQueue. A Write copies into the peer's queue
// and blocks only while that queue is full; a Read drains this end's queue.
// Errors follow net.Pipe: io.ErrClosedPipe once either end is closed (a Read
// after the peer's Close first returns what was queued, then io.EOF), and a
// passed deadline as os.ErrDeadlineExceeded in a *net.OpError. Deadlines
// run on clk, the clock of the MemNetwork that made the connection. A
// blocked Read or Write waits in a select, so faultnet's quiescence scan
// sees a parked end as waiting.
type memConn struct {
	rdMu, wrMu sync.Mutex // one Read and one Write at a time
	in, out    *memQueue
	addr       memAddr
	clk        clock.Clock

	closeOnce sync.Once
	done      chan struct{} // closed by Close
	peerDone  <-chan struct{}

	rd, wd memDeadline
}

// memConnPair returns the two connected ends of a new MemNetwork connection
// to addr, whose deadlines run on clk.
func memConnPair(addr string, clk clock.Clock) (*memConn, *memConn) {
	ab, ba := newMemQueue(), newMemQueue()
	a := &memConn{in: ba, out: ab, addr: memAddr(addr), clk: clk, done: make(chan struct{}), rd: newMemDeadline(), wd: newMemDeadline()}
	b := &memConn{in: ab, out: ba, addr: memAddr(addr), clk: clk, done: make(chan struct{}), rd: newMemDeadline(), wd: newMemDeadline()}
	a.peerDone, b.peerDone = b.done, a.done
	return a, b
}

// Read copies queued bytes into p, waiting for at least one.
func (c *memConn) Read(p []byte) (int, error) {
	c.rdMu.Lock()
	defer c.rdMu.Unlock()
	for {
		switch {
		case isClosed(c.done):
			return 0, io.ErrClosedPipe
		case isClosed(c.peerDone) && c.in.empty():
			return 0, io.EOF
		case isClosed(c.rd.wait()):
			return 0, &net.OpError{Op: "read", Net: "mem", Err: os.ErrDeadlineExceeded}
		}
		if n := c.in.read(p); n > 0 || len(p) == 0 {
			return n, nil
		}
		select {
		case <-c.in.readable:
		case <-c.rd.wait():
		}
	}
}

// Write queues all of p for the peer, waiting while its queue is full.
func (c *memConn) Write(p []byte) (int, error) {
	c.wrMu.Lock()
	defer c.wrMu.Unlock()
	n := 0
	for {
		switch {
		case isClosed(c.done), isClosed(c.peerDone):
			return n, io.ErrClosedPipe
		case isClosed(c.wd.wait()):
			return n, &net.OpError{Op: "write", Net: "mem", Err: os.ErrDeadlineExceeded}
		}
		if n += c.out.write(p[n:]); n == len(p) {
			return n, nil
		}
		select {
		case <-c.out.writable:
		case <-c.wd.wait():
		}
	}
}

// Close closes this end: its own Reads and Writes fail from now on, the
// peer's Writes fail, and the peer's Reads return what is queued, then EOF.
// It wakes every Read and Write parked on either end, which then see done,
// and disarms both deadlines, so a closed end leaves no timer on its clock.
func (c *memConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		c.rd.set(c.clk, time.Time{})
		c.wd.set(c.clk, time.Time{})
		for _, q := range []*memQueue{c.in, c.out} {
			wake(q.readable)
			wake(q.writable)
		}
	})
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.addr }
func (c *memConn) RemoteAddr() net.Addr { return c.addr }

// Clock returns the clock the connection's deadlines run on.
func (c *memConn) Clock() clock.Clock { return c.clk }

// SetDeadline sets both deadlines; see SetReadDeadline.
func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline sets when a pending or future Read fails with a timeout:
// the zero time means never, an instant already past on the connection's
// clock means at once. Only a closed end refuses a deadline: after the
// peer's Close, queued bytes can still be read under one.
func (c *memConn) SetReadDeadline(t time.Time) error {
	if isClosed(c.done) {
		return io.ErrClosedPipe
	}
	c.rd.set(c.clk, t)
	return nil
}

// SetWriteDeadline sets when a pending or future Write fails with a timeout,
// as SetReadDeadline does for reads.
func (c *memConn) SetWriteDeadline(t time.Time) error {
	if isClosed(c.done) {
		return io.ErrClosedPipe
	}
	c.wd.set(c.clk, t)
	return nil
}

// memQueue is one direction of a memConn: the bytes written and not yet
// read, at most memBuffer of them, plus one-slot wake-ups for the reader
// (after a write) and the writer (after a read), both also filled by either
// end's Close. With one reader and one writer at a time, a wake-up is never
// lost: it stays in its slot until the waiter's next select.
type memQueue struct {
	mu    sync.Mutex
	chunk *memChunk // nil while nothing is queued
	off   int       // the queued bytes are chunk.b[off:]

	readable, writable chan struct{}
}

// memChunk is a queue's backing array. A queue takes one from memChunks when
// a write finds it empty and returns it once a read drains it, so an idle
// connection holds no buffer and a stream of frames allocates none.
type memChunk struct{ b []byte }

var memChunks = sync.Pool{New: func() any { return new(memChunk) }}

func newMemQueue() *memQueue {
	return &memQueue{readable: make(chan struct{}, 1), writable: make(chan struct{}, 1)}
}

func (q *memQueue) empty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.chunk == nil
}

// read moves up to len(p) queued bytes into p.
func (q *memQueue) read(p []byte) int {
	q.mu.Lock()
	n := 0
	if q.chunk != nil {
		n = copy(p, q.chunk.b[q.off:])
		q.off += n
		if q.off == len(q.chunk.b) {
			q.chunk.b = q.chunk.b[:0]
			memChunks.Put(q.chunk)
			q.chunk, q.off = nil, 0
		}
	}
	q.mu.Unlock()
	if n > 0 {
		wake(q.writable)
	}
	return n
}

// write queues as much of p as fits under memBuffer and returns how much.
// A chunk grows on demand, never past memBuffer.
func (q *memQueue) write(p []byte) int {
	if len(p) == 0 {
		return 0 // an empty queue holds no chunk
	}
	q.mu.Lock()
	if q.chunk == nil {
		q.chunk = memChunks.Get().(*memChunk)
	}
	b := q.chunk.b
	queued := len(b) - q.off
	n := min(len(p), memBuffer-queued)
	switch {
	case queued+n > cap(b):
		grown := make([]byte, queued, min(memBuffer, 2*cap(b)+n))
		copy(grown, b[q.off:])
		b, q.off = grown, 0
	case len(b)+n > cap(b):
		b, q.off = b[:copy(b, b[q.off:])], 0
	}
	q.chunk.b = append(b, p[:n]...)
	q.mu.Unlock()
	if n > 0 {
		wake(q.readable)
	}
	return n
}

// memDeadline is one direction's deadline, net.Pipe's contract on the
// connection's clock: cancel is closed once the deadline has passed. Under
// faultnet that clock is simulated, and the timer closing cancel fires at
// exactly the deadline's simulated instant.
type memDeadline struct {
	mu     sync.Mutex
	timer  clock.Timer
	cancel chan struct{}
}

func newMemDeadline() memDeadline { return memDeadline{cancel: make(chan struct{})} }

// set moves the deadline to t on clk: the zero time clears it, an instant
// already past closes cancel at once, a future one arms a timer on clk that
// closes it then.
func (d *memDeadline) set(clk clock.Clock, t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.cancel // the timer fired: wait until it has closed cancel
	}
	d.timer = nil
	closed := isClosed(d.cancel)
	if t.IsZero() {
		if closed {
			d.cancel = make(chan struct{})
		}
		return
	}
	if wait := t.Sub(clk.Now()); wait > 0 {
		if closed {
			d.cancel = make(chan struct{})
		}
		cancel := d.cancel
		d.timer = clk.AfterFunc(wait, func() { close(cancel) })
		return
	}
	if !closed {
		close(d.cancel)
	}
}

// wait returns the channel that is closed once the deadline has passed.
func (d *memDeadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// wake fills a one-slot wake-up channel unless it is already full.
func wake(c chan<- struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}
