package faultnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// InjectedError is the error a sender (or reader) observes when a terminal
// fault — reset or truncate — destroys its connection. A caller can match on
// it (errors.As) to tell injected crashes from genuine protocol bugs.
type InjectedError struct {
	Action Action
	Link   string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultnet: injected %s on %s", e.Action, e.Link)
}

// timeoutError is returned when an injected read-side delay pushes a frame
// past the caller's read deadline: the frame is dropped and the caller sees
// a standard net timeout, exactly what a straggler deadline expects.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: injected delay exceeded read deadline" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// simConn runs a pipe end's deadlines on the simulated clock. Each deadline
// is a timer; when it fires it expires the pipe's own deadline, so a blocked
// Read or Write fails with os.ErrDeadlineExceeded at exactly that simulated
// instant. The pipe itself only ever holds no deadline or one long past.
type simConn struct {
	net.Conn
	clk *sim

	mu     sync.Mutex
	rd, wd deadline
}

// deadline is one direction's simulated deadline and the timer enforcing it.
type deadline struct {
	at    time.Time
	timer clock.Timer
}

// expired is the deadline a pipe gets once its simulated one has passed.
var expired = time.Unix(1, 0)

// Clock returns the connection's simulated clock.
func (c *simConn) Clock() clock.Clock { return c.clk }

// SetReadDeadline arms the read deadline at simulated instant t.
func (c *simConn) SetReadDeadline(t time.Time) error {
	return c.arm(&c.rd, t, c.Conn.SetReadDeadline)
}

// SetWriteDeadline arms the write deadline at simulated instant t.
func (c *simConn) SetWriteDeadline(t time.Time) error {
	return c.arm(&c.wd, t, c.Conn.SetWriteDeadline)
}

// SetDeadline arms both deadlines at simulated instant t.
func (c *simConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// arm replaces one direction's deadline with t (zero: none); set is the
// pipe's setter for that direction.
func (c *simConn) arm(d *deadline, t time.Time, set func(time.Time) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	d.at = t
	wait := t.Sub(c.clk.Now())
	if !t.IsZero() && wait <= 0 {
		return set(expired)
	}
	if err := set(time.Time{}); err != nil || t.IsZero() {
		return err
	}
	var timer clock.Timer
	timer = c.clk.AfterFunc(wait, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if d.timer == timer {
			d.timer = nil
			//lint:ignore dropped-error a pipe refuses a deadline only once closed, when its reads and writes have already returned
			set(expired)
		}
	})
	d.timer = timer
	return nil
}

// readDeadline returns the simulated read deadline (zero: none).
func (c *simConn) readDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rd.at
}

// Close stops both deadline timers and closes the pipe.
func (c *simConn) Close() error {
	c.mu.Lock()
	for _, d := range []*deadline{&c.rd, &c.wd} {
		if d.timer != nil {
			d.timer.Stop()
			d.timer = nil
		}
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// faultConn injects the plan's faults into one dialed connection, frame by
// frame: writes fault on the dialer→listener direction, reads on the
// reverse. Reads and deadline updates must come from a single goroutine
// (the invariant every fednode node already upholds); Close may race.
type faultConn struct {
	*simConn
	nw  *Network
	out *dirState // frames this end writes
	in  *dirState // frames the peer writes, delivered to this end

	rbuf []byte
	rerr error
}

// Write applies the plan to one outgoing frame. Non-frame writes (partial
// or foreign bytes) pass through untouched.
func (c *faultConn) Write(p []byte) (int, error) {
	fi, ok := parseFrame(p)
	if !ok {
		return c.Conn.Write(p)
	}
	d := c.out.decide(fi, len(p))
	for _, e := range d.events {
		c.nw.record(e)
	}
	c.waitOut(d.sleep)
	switch d.terminal {
	case ActionReset:
		closeQuiet(c)
		return 0, &InjectedError{Action: ActionReset, Link: c.out.link}
	case ActionTruncate:
		n, werr := c.Conn.Write(p[:d.cut])
		closeQuiet(c)
		if werr != nil {
			return n, fmt.Errorf("faultnet: injected truncate on %s: %w", c.out.link, werr)
		}
		return n, &InjectedError{Action: ActionTruncate, Link: c.out.link}
	}
	if len(d.corrupt) > 0 {
		buf := append([]byte(nil), p...)
		flipBits(buf, d.corrupt)
		return c.Conn.Write(buf)
	}
	return c.Conn.Write(p)
}

// waitOut sleeps through an injected delay plus any active partition on the
// outbound direction. The frame is late, not lost: if the peer's deadline
// fires first, the peer times out and this end's eventual write fails —
// the straggler path, end to end.
func (c *faultConn) waitOut(sleep time.Duration) {
	c.clk.Sleep(sleep)
	// With no partition the heal deadline is the zero time, long past.
	c.clk.Sleep(c.nw.healDeadline(c.out.from, c.out.to).Sub(c.clk.Now()))
}

// Read buffers one inbound frame, applies the plan to it, and serves it.
// Non-frame byte streams pass through unmodified.
func (c *faultConn) Read(b []byte) (int, error) {
	if len(c.rbuf) > 0 {
		n := copy(b, c.rbuf)
		c.rbuf = c.rbuf[n:]
		return n, nil
	}
	if c.rerr != nil {
		return 0, c.rerr
	}

	var hdr [wire.HeaderSize]byte
	n, err := io.ReadFull(c.Conn, hdr[:])
	if err != nil {
		if n == 0 {
			return 0, err
		}
		c.rbuf, c.rerr = append([]byte(nil), hdr[:n]...), err
		return c.Read(b)
	}
	payLen := int(binary.BigEndian.Uint32(hdr[8:]))
	if !frameHeaderOK(hdr[:], payLen) {
		c.rbuf = append([]byte(nil), hdr[:]...)
		return c.Read(b)
	}
	frame := make([]byte, wire.HeaderSize+payLen)
	copy(frame, hdr[:])
	if m, err := io.ReadFull(c.Conn, frame[wire.HeaderSize:]); err != nil {
		c.rbuf, c.rerr = frame[:wire.HeaderSize+m], err
		return c.Read(b)
	}

	fi, ok := parseFrame(frame)
	if !ok { // paranoia: a buffered frame always parses
		c.rbuf = frame
		return c.Read(b)
	}
	d := c.in.decide(fi, len(frame))
	for _, e := range d.events {
		c.nw.record(e)
	}
	if dropped, err := c.waitIn(d.sleep); dropped {
		return 0, err
	}
	switch d.terminal {
	case ActionReset:
		closeQuiet(c)
		return 0, &InjectedError{Action: ActionReset, Link: c.in.link}
	case ActionTruncate:
		c.rbuf = frame[:d.cut]
		closeQuiet(c)
		return c.Read(b)
	}
	if len(d.corrupt) > 0 {
		flipBits(frame, d.corrupt)
	}
	c.rbuf = frame
	return c.Read(b)
}

// waitIn sleeps through an injected inbound delay plus any active partition,
// honoring the caller's read deadline: when the wait would cross it, the
// frame is dropped and a net-timeout error surfaces at the deadline instead
// — an injected straggler, indistinguishable from a genuinely slow peer.
func (c *faultConn) waitIn(sleep time.Duration) (dropped bool, err error) {
	now := c.clk.Now()
	target := now.Add(sleep)
	if until := c.nw.healDeadline(c.in.from, c.in.to); until.After(target) {
		target = until
	}
	if dl := c.readDeadline(); !dl.IsZero() && target.After(dl) {
		c.clk.Sleep(dl.Sub(now))
		return true, timeoutError{}
	}
	c.clk.Sleep(target.Sub(now))
	return false, nil
}

// closeQuiet tears a connection down on a fault path where the close error
// changes nothing.
func closeQuiet(c io.Closer) {
	//lint:ignore dropped-error fault-path close; the connection is being destroyed by design
	c.Close()
}

// frameHeaderOK reports whether a 16-byte header opens a bufferable frame.
func frameHeaderOK(hdr []byte, payLen int) bool {
	if binary.BigEndian.Uint16(hdr) != wire.Magic || hdr[2] != wire.Version {
		return false
	}
	if !wire.Type(hdr[3]).Valid() {
		return false
	}
	return payLen >= 0 && payLen <= wire.DefaultMaxFrame
}

// flipBits inverts the given payload bit positions in a full frame.
func flipBits(frame []byte, bits []int) {
	for _, bit := range bits {
		frame[wire.HeaderSize+bit/8] ^= 1 << (bit % 8)
	}
}
