package faultnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// InjectedError is the error a sender (or reader) observes when a terminal
// fault — reset or truncate — destroys its connection. Scenario supervisors
// match on it to tell injected crashes from genuine protocol bugs.
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
// reverse. Reads and deadline updates must come from a single goroutine
// (the invariant every fednode node already upholds); Close may race.
type faultConn struct {
	net.Conn
	nw  *Network
	out *dirState // frames this end writes
	in  *dirState // frames the peer writes, delivered to this end

	rdeadline time.Time
	rbuf      []byte
	rerr      error

	closeOnce sync.Once
	closeErr  error
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
	if sleep > 0 {
		//lint:ignore wallclock under core.Train's root via the networked executor; an injected delay moves when a frame lands, not what it holds
		time.Sleep(sleep)
	}
	//lint:ignore wallclock partition heal time: bounds waiting, never feeds a result
	if until := c.nw.healDeadline(c.out.from, c.out.to); time.Now().Before(until) {
		//lint:ignore wallclock partition heal time: bounds waiting, never feeds a result
		time.Sleep(time.Until(until))
	}
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
	target := time.Now().Add(sleep)
	if until := c.nw.healDeadline(c.in.from, c.in.to); until.After(target) {
		target = until
	}
	if !c.rdeadline.IsZero() && target.After(c.rdeadline) {
		if wait := time.Until(c.rdeadline); wait > 0 {
			time.Sleep(wait)
		}
		return true, timeoutError{}
	}
	if wait := time.Until(target); wait > 0 {
		time.Sleep(wait)
	}
	return false, nil
}

// SetReadDeadline tracks the deadline for injected-delay accounting and
// forwards it to the wrapped connection.
func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.rdeadline = t
	return c.Conn.SetReadDeadline(t)
}

// SetDeadline tracks the read half and forwards both.
func (c *faultConn) SetDeadline(t time.Time) error {
	c.rdeadline = t
	return c.Conn.SetDeadline(t)
}

// Close closes the wrapped connection once; later calls return the first
// result.
func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.Conn.Close() })
	return c.closeErr
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
	if t := wire.Type(hdr[3]); t < wire.GlobalModel || t > wire.GlobalAggregate {
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
