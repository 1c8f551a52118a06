package faultnet

import (
	"fmt"
	"io"
	"net"
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

// faultConn injects the plan's faults into one dialed connection, frame by
// frame: writes fault on the dialer→listener direction, reads on the
// reverse. The connection enforces its deadlines on the network's clock;
// faultConn keeps the read one so an injected wait can stop at it. Reads and
// deadline updates must come from a single goroutine (the invariant every
// fednode node already upholds), as rd is not locked; Close may race.
type faultConn struct {
	net.Conn
	nw  *Network
	out *dirState // frames this end writes
	in  *dirState // frames the peer writes, delivered to this end
	rd  time.Time // the read deadline (zero: none)

	rbuf []byte
	rerr error
}

// Clock returns the network's simulated clock.
func (c *faultConn) Clock() clock.Clock { return c.nw.clk }

// SetReadDeadline keeps t for waitIn and sets it on the connection.
func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.rd = t
	return c.Conn.SetReadDeadline(t)
}

// SetDeadline keeps t for waitIn and sets both deadlines to it.
func (c *faultConn) SetDeadline(t time.Time) error {
	c.rd = t
	return c.Conn.SetDeadline(t)
}

// Write applies the plan to one outgoing frame: p holds exactly one whole
// frame, the invariant wire.Encode's single Write guarantees. Anything else
// — partial writes, foreign bytes — passes through untouched.
func (c *faultConn) Write(p []byte) (int, error) {
	h, err := wire.ParseHeader(p, 0)
	seq, whole := h.Seq(p)
	if err != nil || !whole {
		return c.Conn.Write(p)
	}
	d := c.out.decide(h, seq)
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
	c.nw.clk.Sleep(sleep)
	// With no partition the heal deadline is the zero time, long past.
	c.nw.clk.Sleep(c.nw.healDeadline(c.out.from, c.out.to).Sub(c.nw.clk.Now()))
}

// Read buffers one inbound frame, applies the plan to it, and serves it.
// Non-frame byte streams pass through unmodified: 16 bytes that are no
// header (wire.ParseHeader) are served as they came, and so is a frame the
// stream ends inside, followed by the stream's own error.
func (c *faultConn) Read(b []byte) (int, error) {
	if len(c.rbuf) > 0 {
		n := copy(b, c.rbuf)
		c.rbuf = c.rbuf[n:]
		return n, nil
	}
	if c.rerr != nil {
		return 0, c.rerr
	}

	frame := make([]byte, wire.HeaderSize)
	n, err := io.ReadFull(c.Conn, frame)
	if err != nil {
		if n == 0 {
			return 0, err
		}
		c.rbuf, c.rerr = frame[:n], ended(err)
		return c.Read(b)
	}
	h, err := wire.ParseHeader(frame, 0)
	if err != nil {
		c.rbuf = frame
		return c.Read(b)
	}
	frame = append(frame, make([]byte, h.PayLen)...)
	if m, err := io.ReadFull(c.Conn, frame[wire.HeaderSize:]); err != nil {
		c.rbuf, c.rerr = frame[:wire.HeaderSize+m], ended(err)
		return c.Read(b)
	}
	seq, _ := h.Seq(frame)
	d := c.in.decide(h, seq)
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

// ended undoes io.ReadFull's rewrite of io.EOF: a stream that ends inside a
// frame ends in the io.EOF the connection returned, as it does unwrapped.
func ended(err error) error {
	if err == io.ErrUnexpectedEOF {
		return io.EOF
	}
	return err
}

// waitIn sleeps through an injected inbound delay plus any active partition,
// honoring the caller's read deadline: when the wait would cross it, the
// frame is dropped and a net-timeout error surfaces at the deadline instead
// — an injected straggler, indistinguishable from a genuinely slow peer.
func (c *faultConn) waitIn(sleep time.Duration) (dropped bool, err error) {
	now := c.nw.clk.Now()
	target := now.Add(sleep)
	if until := c.nw.healDeadline(c.in.from, c.in.to); until.After(target) {
		target = until
	}
	if !c.rd.IsZero() && target.After(c.rd) {
		c.nw.clk.Sleep(c.rd.Sub(now))
		return true, timeoutError{}
	}
	c.nw.clk.Sleep(target.Sub(now))
	return false, nil
}

// closeQuiet tears a connection down on a fault path where the close error
// changes nothing.
func closeQuiet(c io.Closer) {
	//lint:ignore dropped-error fault-path close; the connection is being destroyed by design
	c.Close()
}
