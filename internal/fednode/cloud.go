package fednode

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Cloud is the coordinator of a networked Group-FEL job: it registers the
// edge servers, pushes the group assignment, steps a core.Trainer through T
// global rounds over the edge connections (cloudExec), and finally broadcasts
// the converged model and drains every connection before returning.
type Cloud struct {
	sys   *core.System
	cfg   JobConfig
	meter *Meter
}

// NewCloud prepares a coordinator. meter may be nil (falls back to
// cfg.Meter, then to a fresh private meter).
func NewCloud(sys *core.System, cfg JobConfig, meter *Meter) *Cloud {
	if meter == nil {
		meter = cfg.Meter
	}
	if meter == nil {
		meter = NewMeter(nil)
	}
	return &Cloud{sys: sys, cfg: cfg.withDefaults(), meter: meter}
}

// logf traces when a logger is configured.
func (c *Cloud) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
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
		raw, err := AcceptRetry(ln, cfg.DialAttempts, cfg.DialBackoff, c.meter)
		if err != nil {
			return nil, fmt.Errorf("fednode: cloud accept: %w", err)
		}
		conn := meter(raw, c.meter)
		reg, err := expectFrame(conn, c.meter, cfg.RoundTimeout, wire.GroupAssign)
		if err != nil {
			closeQuiet(conn)
			return nil, fmt.Errorf("fednode: edge registration: %w", err)
		}
		id := int(reg.From)
		if id < 0 || id >= numEdges {
			closeQuiet(conn)
			return nil, fmt.Errorf("fednode: edge id %d out of range [0,%d)", id, numEdges)
		}
		if conns[id] != nil {
			closeQuiet(conn)
			return nil, fmt.Errorf("fednode: duplicate registration for edge %d", id)
		}
		conns[id] = conn
		c.logf("cloud: edge %d registered (%d/%d)", id, i+1, numEdges)
	}

	// The one round loop: the cloud steps the core.Trainer the in-process path
	// steps, over an executor that reaches the groups through the edge
	// connections. Built only now: a rejected config then closes registered
	// connections, so every edge unblocks.
	reg := c.meter.Registry()
	exec := &cloudExec{timeout: cfg.RoundTimeout, meter: c.meter, conns: conns}
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
			if err := sendFrame(conn, c.meter, msg, cfg.RoundTimeout); err != nil {
				return nil, err
			}
		}
		end := &wire.Message{Type: wire.GroupAssign, From: -1}
		if err := sendFrame(conn, c.meter, end, cfg.RoundTimeout); err != nil {
			return nil, err
		}
	}

	rep := &Report{}
	start := time.Now()
	bytesMark := c.meter.Written()
	for !tr.Done() {
		roundSpan := reg.Start("fel_fednode_round_seconds", metrics.L("role", "cloud"))
		rec := tr.Step()
		if err := tr.Err(); err != nil {
			return nil, err
		}
		written := c.meter.Written()
		stat := RoundStat{
			Round: rec.Round, Accuracy: rec.Accuracy, Loss: rec.Loss,
			Selected: len(exec.updates), Dropouts: exec.drops, Recoveries: exec.recoveries,
			WireBytes: written - bytesMark,
		}
		bytesMark = written
		rep.Rounds = append(rep.Rounds, stat)
		rep.RoundsRun = rec.Round + 1
		rep.Dropouts += stat.Dropouts
		rep.Recoveries += stat.Recoveries
		roundSpan.End()
		c.logf("cloud: round %d done: acc=%.4f dropouts=%d recoveries=%d bytes=%d",
			rec.Round, stat.Accuracy, stat.Dropouts, stat.Recoveries, stat.WireBytes)
	}

	// Graceful shutdown: broadcast the final model, then wait for every
	// edge's ack so all downstream forwards have drained before we close.
	final := &wire.Message{Type: wire.GlobalAggregate, Round: uint32(cfg.GlobalRounds), Floats: tr.Params()}
	for e, conn := range conns {
		if err := sendFrame(conn, c.meter, final, cfg.RoundTimeout); err != nil {
			return nil, fmt.Errorf("fednode: final broadcast to edge %d: %w", e, err)
		}
	}
	for e, conn := range conns {
		if _, err := expectFrame(conn, c.meter, cfg.RoundTimeout, wire.GlobalAggregate); err != nil {
			return nil, fmt.Errorf("fednode: shutdown ack from edge %d: %w", e, err)
		}
	}

	res := tr.Finish()
	rep.FinalAccuracy, rep.FinalLoss, rep.Params = res.FinalAccuracy, res.FinalLoss, res.Params
	rep.WallClock = time.Since(start)
	rep.WireWritten = c.meter.Written()
	rep.WireRead = c.meter.Read()
	rep.Frames = c.meter.Frames()
	rep.AccountedBytes = c.meter.Accounted()
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
// GroupAggregate per selected group, one joined reader per edge connection.
func (x *cloudExec) RunGroups(t int, groups []*grouping.Group, selected []int, params []float64) ([]core.GroupUpdate, error) {
	selByEdge := make([][]int32, len(x.conns))
	slot := make(map[int32]int, len(selected)) // group ID → selection slot
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
	var mu sync.Mutex // updates and the totals: an edge may name any group
	var wg sync.WaitGroup
	for e, conn := range x.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range selByEdge[e] {
				m, err := expectFrame(conn, x.meter, x.timeout, wire.GroupAggregate)
				if err != nil {
					errs[e] = err
					return
				}
				si, known := slot[m.From]
				switch {
				case int(m.Round) != t:
					errs[e] = fmt.Errorf("fednode: edge %d aggregate for round %d during round %d", e, m.Round, t)
				case !known:
					errs[e] = fmt.Errorf("fednode: edge %d reported unknown group %d", e, m.From)
				case len(m.Floats) != len(params):
					errs[e] = fmt.Errorf("fednode: group %d aggregate has %d params, want %d", m.From, len(m.Floats), len(params))
				}
				if errs[e] != nil {
					return
				}
				mu.Lock()
				x.updates[si].Params = m.Floats
				if len(m.Ints) == 2 {
					x.updates[si].Drops = int(m.Ints[0])
					x.drops += int(m.Ints[0])
					x.recoveries += int(m.Ints[1])
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for si, u := range x.updates {
		if u.Params == nil {
			return nil, fmt.Errorf("fednode: round %d missing aggregate for group %d", t, groups[selected[si]].ID)
		}
	}
	return x.updates, nil
}
