package fednode

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Network abstracts how nodes reach each other: real TCP in production,
// buffered in-process connections (MemNetwork) in tests, examples and
// benchmarks. Every conn a Network hands out is
// already wrapped for byte metering by the callers in this package.
type Network interface {
	// Listen opens a listener on addr. For TCP, addr is a host:port (use
	// "127.0.0.1:0" for an ephemeral port and read it back from
	// Listener.Addr). For the memory network, addr is any unique name.
	Listen(addr string) (net.Listener, error)
	// Dial connects to a listener previously opened on addr.
	Dial(addr string) (net.Conn, error)
}

// TagNetwork is the optional transport extension a fault-injection or
// tracing wrapper (internal/faultnet) implements on top of Network: the
// same dial/listen surface, but with stable node identities attached.
// fednode always announces who is listening ("cloud", "edge/<e>") and who
// is dialing ("edge/<e>", "client/<id>") through these methods when the
// transport supports them, so a wrapper can key per-link state off node
// identity instead of goroutine scheduling — the property that makes
// injected fault schedules replayable.
type TagNetwork interface {
	Network
	// ListenAs opens a listener on addr owned by the node named tag.
	ListenAs(tag, addr string) (net.Listener, error)
	// DialFrom dials addr on behalf of the node named fromTag.
	DialFrom(fromTag, addr string) (net.Conn, error)
}

// listenTagged listens with the node tag when the transport understands it.
func listenTagged(nw Network, tag, addr string) (net.Listener, error) {
	if tn, ok := nw.(TagNetwork); ok {
		return tn.ListenAs(tag, addr)
	}
	return nw.Listen(addr)
}

// dialTagged dials with the node tag when the transport understands it.
func dialTagged(nw Network, fromTag, addr string) (net.Conn, error) {
	if tn, ok := nw.(TagNetwork); ok {
		return tn.DialFrom(fromTag, addr)
	}
	return nw.Dial(addr)
}

// restartBudget returns how often RunEdge may redial a failed client and the
// pause before each redial, when the transport grants a budget (faultnet's
// Network returns its plan's); TCP and MemNetwork grant none.
func restartBudget(nw Network) (int, time.Duration) {
	if b, ok := nw.(interface{ RestartBudget() (int, time.Duration) }); ok {
		return b.RestartBudget()
	}
	return 0, 0
}

// TCPNetwork is the production Network: real sockets.
type TCPNetwork struct{}

// tcpDialTimeout bounds one TCP connection attempt.
const tcpDialTimeout = 3 * time.Second

// Listen opens a TCP listener.
func (t TCPNetwork) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Dial connects over TCP.
func (t TCPNetwork) Dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, tcpDialTimeout)
}

// MemNetwork is an in-process Network: no ports, no kernel. Each connection
// is a pair of memConn ends, a socket's contract in process memory — a
// Write returns once its bytes are queued for the peer (memBuffer of them
// per direction), deadlines and close behave as on net.Pipe.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	autoN     int
}

// NewMemNetwork returns an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

// Listen registers addr; later Dials of the same addr reach this listener.
// An empty addr auto-assigns a unique name (read it back from Addr), the
// memnet analogue of TCP port 0.
func (m *MemNetwork) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		m.autoN++
		addr = fmt.Sprintf("mem-%d", m.autoN)
	}
	if _, dup := m.listeners[addr]; dup {
		return nil, fmt.Errorf("fednode: memnet address %q already in use", addr)
	}
	l := &memListener{addr: addr, backlog: make(chan net.Conn, 64), done: make(chan struct{})}
	m.listeners[addr] = l
	return l, nil
}

// Dial creates a connection, delivering the server end to addr's listener.
func (m *MemNetwork) Dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	l := m.listeners[addr]
	m.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("fednode: memnet dial %q: connection refused", addr)
	}
	client, server := memConnPair(addr)
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("fednode: memnet dial %q: listener closed", addr)
	}
}

type memListener struct {
	addr    string
	backlog chan net.Conn
	done    chan struct{}
	closed  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("fednode: memnet listener %q closed", l.addr)
	}
}

func (l *memListener) Close() error {
	l.closed.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// Meter aggregates a job's transport-level observability into a metrics
// registry: per-message-type frame and byte counters (fel_wire_*, indexed
// by wire.Type), raw transport read/write bytes (fel_net_*), connection
// retries, and the protocol layer's dropout/recovery/straggler/restart
// tallies (fel_fednode_*). In a loopback run a single Meter sees all nodes, so
// Written (transport bytes that left a socket) can be cross-checked
// against Accounted (the sum of wire.Message.EncodedSize at every send
// site): the two must agree exactly on a clean run, proving the codec's
// accounting matches what actually moved.
type Meter struct {
	reg *metrics.Registry

	written, read              *metrics.Counter
	dialRetries, acceptRetries *metrics.Counter
	dropouts, recoveries       *metrics.Counter
	stragglers, rejoins        *metrics.Counter
	restarts                   *metrics.Counter
	frames, bytes              [int(wire.GlobalAggregate) + 1]*metrics.Counter
}

// NewMeter wires a meter into reg; nil gets a fresh private registry. The
// counters are registered eagerly, so a snapshot of an idle job already
// shows the full fel_net_/fel_wire_/fel_fednode_ schema at zero.
func NewMeter(reg *metrics.Registry) *Meter {
	if reg == nil {
		reg = metrics.New()
	}
	m := &Meter{
		reg:           reg,
		written:       reg.Counter("fel_net_written_bytes_total"),
		read:          reg.Counter("fel_net_read_bytes_total"),
		dialRetries:   reg.Counter("fel_net_dial_retries_total"),
		acceptRetries: reg.Counter("fel_net_accept_retries_total"),
		dropouts:      reg.Counter("fel_fednode_dropouts_total"),
		recoveries:    reg.Counter("fel_fednode_recoveries_total"),
		stragglers:    reg.Counter("fel_fednode_straggler_timeouts_total"),
		rejoins:       reg.Counter("fel_fednode_rejoins_total"),
		restarts:      reg.Counter("fel_fednode_client_restarts_total"),
	}
	for t := wire.GlobalModel; t <= wire.GlobalAggregate; t++ {
		tl := metrics.L("type", t.String())
		m.frames[t] = reg.Counter("fel_wire_frames_total", tl)
		m.bytes[t] = reg.Counter("fel_wire_bytes_total", tl)
	}
	return m
}

// Registry exposes the meter's backing registry for snapshots, tables,
// and the -metrics HTTP endpoint. Never nil.
func (m *Meter) Registry() *metrics.Registry { return m.reg }

// countFrame records one sent frame of type t carrying n accounted bytes.
func (m *Meter) countFrame(t wire.Type, n int) {
	m.frames[t].Inc()
	m.bytes[t].Add(int64(n))
}

// countDecodeError classifies a failed frame decode into
// fel_wire_decode_errors_total{reason} via wire.ErrorClass. A clean EOF is
// shutdown, not an error, and is not counted; a fault-injection run can pin
// these counters against the number of corruptions it injected.
func (m *Meter) countDecodeError(err error) {
	if class := wire.ErrorClass(err); class != "" && class != "eof" {
		m.reg.Counter("fel_wire_decode_errors_total", metrics.L("reason", class)).Inc()
	}
}

// Written returns the total bytes written to metered conns.
func (m *Meter) Written() int64 { return m.written.Value() }

// Read returns the total bytes read from metered conns.
func (m *Meter) Read() int64 { return m.read.Value() }

// Frames returns the number of frames sent through sendFrame.
func (m *Meter) Frames() int64 {
	var n int64
	for t := wire.GlobalModel; t <= wire.GlobalAggregate; t++ {
		n += m.frames[t].Value()
	}
	return n
}

// Accounted returns the codec-accounted bytes of all frames sent.
func (m *Meter) Accounted() int64 {
	var n int64
	for t := wire.GlobalModel; t <= wire.GlobalAggregate; t++ {
		n += m.bytes[t].Value()
	}
	return n
}

// meteredConn counts transport bytes through a net.Conn.
type meteredConn struct {
	net.Conn
	m *Meter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.read.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.written.Add(int64(n))
	return n, err
}

// Clock returns the wrapped connection's clock.
func (c *meteredConn) Clock() clock.Clock { return clock.Of(c.Conn) }

// meter wraps conn so its traffic lands in m.
func meter(conn net.Conn, m *Meter) net.Conn {
	return &meteredConn{Conn: conn, m: m}
}

// retryBackoff returns the pause before retry i (1-based): the capped
// exponential schedule, with the top half of each step replaced by a draw
// from rng. Jitter matters under faults: when a partition heals, every
// client of an edge wakes in the same backoff tick, and an unjittered
// schedule stampedes them onto the listener in one burst. The draw comes
// from a per-node seeded RNG, not the global clock, so reconnect schedules
// stay deterministic per node while distinct across nodes. A nil rng keeps
// the fixed schedule.
func retryBackoff(base time.Duration, i int, rng *stats.RNG) time.Duration {
	d := base
	for step := 1; step < i && d < time.Second; step++ {
		d *= 2
	}
	if d > time.Second {
		d = time.Second
	}
	if rng == nil || d < 2 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.IntN(int(half)))
}

// dialSeed derives a node's backoff-jitter RNG seed from the job seed and
// its tag — deterministic per node, decorrelated across nodes.
func dialSeed(seed uint64, tag string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return seed ^ h
}

// DialRetry dials addr on nw as fromTag with bounded, jittered exponential
// backoff, absorbing the startup races of a distributed launch (an edge
// dialing the cloud before its listener is up), transient refusals, and
// partition-heal reconnect bursts; the serving layer and load harnesses reuse
// it so their connection storms get the same stampede-free schedule. The
// pauses are slept on nw's clock. Retries land in m's
// fel_net_dial_retries_total; m and rng may be nil.
func DialRetry(nw Network, fromTag, addr string, attempts int, backoff time.Duration, m *Meter, rng *stats.RNG) (net.Conn, error) {
	clk := clock.Of(nw)
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if m != nil {
				m.dialRetries.Inc()
			}
			clk.Sleep(retryBackoff(backoff, i, rng))
		}
		var c net.Conn
		c, err = dialTagged(nw, fromTag, addr)
		if err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("fednode: dial %s failed after %d attempts: %w", addr, attempts, err)
}

// AcceptRetry accepts one connection from ln, retrying transient failures —
// a timeout, or a loaded host out of file descriptors (EMFILE, ENFILE) —
// with bounded exponential backoff slept on ln's clock; any other error is
// fatal. Retries land in m's fel_net_accept_retries_total (m may be nil).
func AcceptRetry(ln net.Listener, attempts int, backoff time.Duration, m *Meter) (net.Conn, error) {
	clk := clock.Of(ln)
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if m != nil {
				m.acceptRetries.Inc()
			}
			clk.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
		}
		var c net.Conn
		c, err = ln.Accept()
		if err == nil {
			return c, nil
		}
		var ne net.Error
		timeout := errors.As(err, &ne) && ne.Timeout()
		if !timeout && !errors.Is(err, syscall.EMFILE) && !errors.Is(err, syscall.ENFILE) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("fednode: accept failed after %d attempts: %w", attempts, err)
}

// closeQuiet closes c on a shutdown path where the close error changes
// nothing for the caller.
func closeQuiet(c interface{ Close() error }) {
	//lint:ignore dropped-error shutdown-path close; the connection is being abandoned either way
	c.Close()
}
