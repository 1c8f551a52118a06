package fednode

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Cloud is the coordinator of a networked Group-FEL job: it registers the
// edge servers, pushes the group assignment, steps a core.Trainer through T
// global rounds over the edge connections (cloudExec), and finally broadcasts
// the converged model and drains every connection before returning.
type Cloud struct {
	sys *core.System
	cfg JobConfig
}

// NewCloud prepares a coordinator metered by cfg.Meter, or by a fresh
// private meter when that is nil.
func NewCloud(sys *core.System, cfg JobConfig) *Cloud {
	return &Cloud{sys: sys, cfg: cfg.withDefaults()}
}

// Run serves one complete job on ln and returns the report. It expects
// len(sys.Edges) edge servers to register and blocks until the job drains:
// when Run returns, every protocol goroutine it spawned has been joined and
// every edge connection closed.
func (c *Cloud) Run(ln net.Listener) (*Report, error) {
	cfg := c.cfg
	numEdges := len(c.sys.Edges)
	if numEdges == 0 {
		return nil, fmt.Errorf("fednode: system has no edges")
	}

	// Registration: every edge dials in and identifies itself.
	conns := make([]net.Conn, numEdges)
	defer func() {
		for _, conn := range conns {
			if conn != nil {
				closeQuiet(conn)
			}
		}
	}()
	for i := 0; i < numEdges; i++ {
		conn, id, err := acceptHello(ln, cfg)
		if err != nil {
			return nil, fmt.Errorf("fednode: edge registration: %w", err)
		}
		if id < 0 || id >= numEdges {
			closeQuiet(conn)
			return nil, fmt.Errorf("fednode: edge id %d out of range [0,%d)", id, numEdges)
		}
		if conns[id] != nil {
			closeQuiet(conn)
			return nil, fmt.Errorf("fednode: duplicate registration for edge %d", id)
		}
		conns[id] = conn
		c.cfg.Logf("cloud: edge %d registered (%d/%d)", id, i+1, numEdges)
	}

	// The one round loop: the cloud steps the core.Trainer the in-process path
	// steps, over an executor that reaches the groups through the edge
	// connections. Built only now: a rejected config then closes registered
	// connections, so every edge unblocks.
	reg := cfg.Meter.Registry()
	exec := &cloudExec{timeout: cfg.RoundTimeout, meter: cfg.Meter, conns: conns}
	tr, err := core.NewTrainerOn(c.sys, cfg.TrainConfig(reg), exec, cfg.Groups, cfg.FixedSelection)
	if err != nil {
		return nil, fmt.Errorf("fednode: %w", err)
	}

	// Push the assignment: one GroupAssign per group to its edge, then a
	// sentinel (From = -1) closing the stream.
	groups := tr.Groups()
	for e, conn := range conns {
		for _, g := range groups {
			if g.Edge != e {
				continue
			}
			members := make([]int32, g.Size())
			for i, cl := range g.Clients {
				members[i] = int32(cl.ID)
			}
			msg := &wire.Message{Type: wire.GroupAssign, From: int32(g.ID), Ints: members}
			if err := sendFrame(conn, cfg.Meter, msg, cfg.RoundTimeout); err != nil {
				return nil, err
			}
		}
		end := &wire.Message{Type: wire.GroupAssign, From: -1}
		if err := sendFrame(conn, cfg.Meter, end, cfg.RoundTimeout); err != nil {
			return nil, err
		}
	}

	rep := &Report{}
	start := clock.Real.Now()
	bytesMark := cfg.Meter.roundBytes()
	roundHist := reg.Histogram("fel_fednode_round_seconds", metrics.L("role", "cloud"))
	for !tr.Done() {
		roundSpan := roundHist.Start()
		rec := tr.Step()
		if err := tr.Err(); err != nil {
			return nil, err
		}
		sent := cfg.Meter.roundBytes()
		stat := RoundStat{
			Selected: len(exec.updates), Dropouts: exec.drops, Recoveries: exec.recoveries,
			WireBytes: sent - bytesMark,
		}
		bytesMark = sent
		rep.Rounds = append(rep.Rounds, stat)
		rep.Recoveries += stat.Recoveries
		roundSpan.End()
		c.cfg.Logf("cloud: round %d done: acc=%.4f dropouts=%d recoveries=%d bytes=%d",
			rec.Round, rec.Accuracy, stat.Dropouts, stat.Recoveries, stat.WireBytes)
	}

	// Graceful shutdown: broadcast the final model, then wait for every
	// edge's ack so all downstream forwards have drained before we close.
	final := &wire.Message{Type: wire.GlobalAggregate, Round: uint32(cfg.GlobalRounds), Floats: tr.Params()}
	for e, conn := range conns {
		if err := sendFrame(conn, cfg.Meter, final, cfg.RoundTimeout); err != nil {
			return nil, fmt.Errorf("fednode: final broadcast to edge %d: %w", e, err)
		}
	}
	for e, conn := range conns {
		if _, err := expectFrame(conn, cfg.Meter, cfg.RoundTimeout, 0, wire.GlobalAggregate); err != nil {
			return nil, fmt.Errorf("fednode: shutdown ack from edge %d: %w", e, err)
		}
	}

	rep.Result = tr.Finish()
	rep.WallClock = clock.Real.Now().Sub(start)
	cfg.Meter.fill(rep)
	return rep, nil
}

// cloudExec is the networked core.Executor: a round's groups train behind the
// edge connections. Beyond the updates it keeps the last round's drops and
// secagg recoveries as the edges reported them, for the Report.
type cloudExec struct {
	timeout time.Duration
	meter   *Meter
	conns   []net.Conn

	updates           []core.GroupUpdate
	drops, recoveries int
}

// RunGroups broadcasts the global model with each edge's share of the
// selection (possibly empty — edges stay in lockstep) and collects one
// GroupAggregate per selected group into its slot's vector, one joined
// reader per edge connection.
func (x *cloudExec) RunGroups(t int, groups []*grouping.Group, selected []int, params []float64, out [][]float64) ([]core.GroupUpdate, error) {
	selByEdge := make([][]int32, len(x.conns))
	slot := make(map[int32]int, len(selected)) // group ID → selection slot
	got := make([]bool, len(selected))
	x.updates = append(x.updates[:0], make([]core.GroupUpdate, len(selected))...)
	for si, gi := range selected {
		g := groups[gi]
		selByEdge[g.Edge] = append(selByEdge[g.Edge], int32(g.ID))
		slot[int32(g.ID)] = si
	}
	for e, conn := range x.conns {
		msg := &wire.Message{Type: wire.GlobalModel, Round: uint32(t), Floats: params, Ints: selByEdge[e]}
		if err := sendFrame(conn, x.meter, msg, x.timeout); err != nil {
			return nil, fmt.Errorf("fednode: round %d push to edge %d: %w", t, e, err)
		}
	}

	x.drops, x.recoveries = 0, 0
	errs := make([]error, len(x.conns))
	var mu sync.Mutex // the slots, updates and totals: an edge may name any group
	cpu.Peers(len(x.conns), func(e int) {
		conn := x.conns[e]
		for range selByEdge[e] {
			// Each aggregate is copied into its slot as it lands, from a
			// Message lent for that one decode.
			errs[e] = lendFrame(conn, x.meter, x.timeout, wire.GroupAggregate, func(m *wire.Message) error {
				si, known := slot[m.From]
				switch {
				case int(m.Round) != t:
					return fmt.Errorf("fednode: edge %d aggregate for round %d during round %d", e, m.Round, t)
				case !known:
					return fmt.Errorf("fednode: edge %d reported unknown group %d", e, m.From)
				case len(m.Floats) != len(params):
					return fmt.Errorf("fednode: group %d aggregate has %d params, want %d", m.From, len(m.Floats), len(params))
				case len(m.Ints) != 2 || m.Ints[0] < 0 || int(m.Ints[0]) > groups[selected[si]].Size() || m.Ints[1] < 0:
					return fmt.Errorf("fednode: edge %d reported drops and recoveries %v for group %d of %d members", e, m.Ints, m.From, groups[selected[si]].Size())
				}
				mu.Lock()
				copy(out[si], m.Floats)
				got[si] = true
				x.updates[si].Drops = int(m.Ints[0])
				x.drops += int(m.Ints[0])
				x.recoveries += int(m.Ints[1])
				mu.Unlock()
				return nil
			})
			if errs[e] != nil {
				return
			}
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for si, ok := range got {
		if !ok {
			return nil, fmt.Errorf("fednode: round %d missing aggregate for group %d", t, groups[selected[si]].ID)
		}
	}
	return x.updates, nil
}
