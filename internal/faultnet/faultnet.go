// Package faultnet is a deterministic fault-injection layer for the
// networked federation stack and the simulator it runs in: it wraps
// internal/fednode's in-memory transport (MemNetwork) and applies a seeded,
// scripted fault Plan at wire-frame boundaries — per-link delay and straggler
// injection, frame corruption and truncation, connection resets, and link
// partitions with heal times.
//
// Time under a Network is simulated. Injected delays, partition heals, the
// refusal of dials across a partition, and every deadline set on a
// connection the Network hands out (dialed or accepted) run on its clock:
// Wrap hands the clock to the MemNetwork it wraps, whose own deadline timers
// then fire at simulated instants. internal/clock.Of finds it for fednode's
// deadlines, dial backoff and restart backoff. The clock stands still while
// anything in the process can run and jumps to its next timer once nothing
// can (sim.go), so a plan's waits cost no wall time and their order is fixed
// by the plan, not by the host's load. That quiescence is read from
// goroutine states, which kernel buffers hide: TCP transports are not
// supported.
//
// Links are identified by the node tags internal/fednode supplies through
// its TagNetwork hooks ("cloud", "edge/<e>", "client/<id>"), never by
// goroutine scheduling, and every probabilistic draw comes from a per-link
// stats.RNG derived from the plan seed. Two runs of the same plan and seed
// therefore inject the same faults at the same frame indices and render
// byte-identical event logs (Log) — failure becomes a replayable input, the
// same way a training seed is.
//
// The injector distinguishes time-shaping faults (delay, partition) from
// destructive ones (corrupt, truncate, reset): a plan built only from the
// former must leave the training trajectory bit-identical to a fault-free
// run, which the scenario suite (faultnet/scenarios) asserts.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Transport is the dial/listen surface faultnet wraps — structurally
// identical to internal/fednode's Network. Only an in-process transport
// (fednode's MemNetwork) may be wrapped: see the package doc.
type Transport interface {
	Listen(addr string) (net.Listener, error)
	Dial(addr string) (net.Conn, error)
}

// Network wraps a Transport and injects the plan's faults into every
// connection dialed through it. It implements both halves of fednode's
// transport surface: the plain Network methods and the TagNetwork methods
// (DialFrom, ListenAs) that give faults their link identity. Faults are
// applied on the dialing end of each connection, in both directions —
// frames the dialer writes and frames it reads — so wrapping dials covers
// every link of the cloud–edge–client tree.
type Network struct {
	inner Transport
	plan  *Plan
	log   *Log
	reg   *metrics.Registry
	clk   *sim

	mu           sync.Mutex
	listenerTags map[string]string    // addr → listener tag
	dirs         map[string]*dirState // "from→to" → per-direction fault state
	partitions   map[string]time.Time // normalized link pair → heal deadline
	anonDials    int
}

// Wrap builds a fault-injecting view of inner executing plan, on a simulated
// clock of its own that it hands to inner through SetClock (fednode's
// MemNetwork has it; an inner without it panics, as its deadlines would
// answer another clock). reg (which may be nil) receives
// fel_faultnet_injected_total{action} counters as faults fire. The plan must
// already be validated.
func Wrap(inner Transport, plan *Plan, reg *metrics.Registry) *Network {
	clk := newSim()
	if inner != nil {
		inner.(interface{ SetClock(clock.Clock) }).SetClock(clk)
	}
	return &Network{
		inner:        inner,
		plan:         plan,
		log:          &Log{},
		reg:          reg,
		clk:          clk,
		listenerTags: make(map[string]string),
		dirs:         make(map[string]*dirState),
		partitions:   make(map[string]time.Time),
	}
}

// Log exposes the injected-fault event log.
func (n *Network) Log() *Log { return n.log }

// Clock returns the network's simulated clock.
func (n *Network) Clock() clock.Clock { return n.clk }

// RestartBudget returns the plan's crash-restart budget: how often fednode
// redials a client whose run failed, and the pause before each redial.
func (n *Network) RestartBudget() (int, time.Duration) {
	return n.plan.MaxRestarts, time.Duration(n.plan.RestartBackoffMs) * time.Millisecond
}

// ListenAs opens a listener on addr and remembers its tag, so later dials
// of the same address resolve their link identity.
func (n *Network) ListenAs(tag, addr string) (net.Listener, error) {
	ln, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.listenerTags[ln.Addr().String()] = tag
	n.mu.Unlock()
	return ln, nil
}

// Listen opens an untagged listener; its tag defaults to its address.
func (n *Network) Listen(addr string) (net.Listener, error) {
	ln, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	resolved := ln.Addr().String()
	n.mu.Lock()
	if _, ok := n.listenerTags[resolved]; !ok {
		n.listenerTags[resolved] = resolved
	}
	n.mu.Unlock()
	return ln, nil
}

// DialFrom dials addr on behalf of the node tagged fromTag and wraps the
// connection for fault injection on the "fromTag→listenerTag" link. A dial
// across an actively partitioned link is refused (the caller's bounded
// retry/backoff loop absorbs it, exactly like a real SYN black-hole).
func (n *Network) DialFrom(fromTag, addr string) (net.Conn, error) {
	toTag := n.tagFor(addr)
	if until := n.healDeadline(fromTag, toTag); n.clk.Now().Before(until) {
		return nil, fmt.Errorf("faultnet: dial %s from %s: link partitioned", addr, fromTag)
	}
	conn, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{
		Conn: conn,
		nw:   n,
		out:  n.dir(fromTag, toTag),
		in:   n.dir(toTag, fromTag),
	}, nil
}

// Dial dials with an anonymous per-call tag; prefer DialFrom.
func (n *Network) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	n.anonDials++
	tag := fmt.Sprintf("anon/%d", n.anonDials)
	n.mu.Unlock()
	return n.DialFrom(tag, addr)
}

// tagFor resolves a listener address to its tag (the address itself when
// the listener was opened untagged).
func (n *Network) tagFor(addr string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if tag, ok := n.listenerTags[addr]; ok {
		return tag
	}
	return addr
}

// dir returns (creating on first use) the fault state of one link
// direction. The state — RNG stream, frame counter, per-rule fire counts —
// survives reconnects, so a crash-restarted client continues the same
// deterministic fault sequence.
func (n *Network) dir(from, to string) *dirState {
	link := from + "→" + to
	n.mu.Lock()
	defer n.mu.Unlock()
	ds := n.dirs[link]
	if ds == nil {
		ds = &dirState{
			net:   n,
			from:  from,
			to:    to,
			link:  link,
			rng:   stats.NewRNG(n.plan.Seed ^ fnv64(link)),
			fired: make([]int, len(n.plan.Rules)),
		}
		n.dirs[link] = ds
	}
	return ds
}

// partition blocks both directions between a and b until now+heal.
func (n *Network) partition(a, b string, heal time.Duration) {
	key := pairKey(a, b)
	deadline := n.clk.Now().Add(heal)
	n.mu.Lock()
	if deadline.After(n.partitions[key]) {
		n.partitions[key] = deadline
	}
	n.mu.Unlock()
}

// healDeadline returns when the a↔b partition heals (zero when none holds).
func (n *Network) healDeadline(a, b string) time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitions[pairKey(a, b)]
}

// pairKey normalizes an unordered link pair.
func pairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// record publishes one injected fault to the log and the metrics registry.
func (n *Network) record(e Event) {
	n.log.add(e)
	n.reg.Counter("fel_faultnet_injected_total", metrics.L("action", string(e.Action))).Inc()
}

// fnv64 hashes a link name into an RNG seed offset (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// dirState is the persistent fault state of one link direction.
type dirState struct {
	net      *Network
	from, to string
	link     string
	mu       sync.Mutex
	rng      *stats.RNG
	frames   int64
	fired    []int
}

// decision is the outcome of matching one frame against the plan: the
// faults to apply, pre-drawn under the direction lock so the RNG stream
// stays per-link sequential.
type decision struct {
	sleep    time.Duration
	corrupt  []int  // payload bit positions to flip
	terminal Action // ActionTruncate or ActionReset ("" = none)
	cut      int    // truncate: frame bytes to keep
	events   []Event
}

// decide consumes one frame slot on the direction and returns the faults
// the plan injects into the frame h heads, whose payload opens with seq. All
// randomness is drawn here, under the lock.
func (ds *dirState) decide(h wire.Header, seq uint32) decision {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	frame := ds.frames
	ds.frames++
	frameLen, round, k := h.FrameLen(), int(h.Round), int(seq)

	var d decision
	for i := range ds.net.plan.Rules {
		r := &ds.net.plan.Rules[i]
		if d.terminal != "" {
			break
		}
		if !r.matches(ds.from, ds.to, h.Type, round, k) {
			continue
		}
		if r.Count > 0 && ds.fired[i] >= r.Count {
			continue
		}
		if r.Prob < 1 && ds.rng.Float64() >= r.Prob {
			continue
		}
		ds.fired[i]++
		ev := Event{
			Link: ds.link, Frame: frame, Action: r.Action,
			Type: h.Type.String(), Round: round, Seq: k,
		}
		switch r.Action {
		case ActionDelay:
			ms := r.DelayMs
			if r.JitterMs > 0 {
				ms += ds.rng.IntN(r.JitterMs + 1)
			}
			d.sleep += time.Duration(ms) * time.Millisecond
			ev.Detail = fmt.Sprintf("delay=%dms", ms)
			if r.BytesPerMs > 0 {
				// In nanoseconds, so 25000 and 5000 bytes/ms price exactly.
				perByte := time.Duration(frameLen) * time.Millisecond / time.Duration(r.BytesPerMs)
				d.sleep += perByte
				ev.Detail += fmt.Sprintf("+%v", perByte)
			}
		case ActionCorrupt:
			d.corrupt = drawFlips(d.corrupt, frameLen, r.Flips, ds.rng)
			ev.Detail = fmt.Sprintf("flips=%d", r.Flips)
		case ActionTruncate:
			d.cut = drawCut(frameLen, ds.rng)
			d.terminal = ActionTruncate
			ev.Detail = fmt.Sprintf("cut=%d/%d", d.cut, frameLen)
		case ActionReset:
			d.terminal = ActionReset
			ev.Detail = "conn closed"
		case ActionPartition:
			heal := time.Duration(r.HealMs) * time.Millisecond
			ds.net.partition(ds.from, ds.to, heal)
			ev.Detail = fmt.Sprintf("heal=%dms", r.HealMs)
		}
		d.events = append(d.events, ev)
	}
	return d
}
