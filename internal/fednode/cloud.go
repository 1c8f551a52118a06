package fednode

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Cloud is the coordinator of a networked Group-FEL job: it registers the
// edge servers, forms groups and pushes the assignment, then drives T
// global rounds — global model out, group aggregates back, weighted
// aggregation, evaluation — and finally broadcasts the converged model and
// drains every connection before returning.
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
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
		raw, err := acceptRetry(ln, cfg.DialAttempts, cfg.DialBackoff, c.meter)
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

	// The same control plane the in-process trainer steps: formation, p_g
	// and every round's S_t come from one core.Plan, published under one
	// fel_core_* schema, so a clean loopback run follows the in-process
	// trajectory and one audit recipe (empirical selection frequency vs p_g,
	// see EXPERIMENTS.md) reads both kinds of run.
	plan, err := cfg.plan(c.sys, c.meter.Registry())
	if err != nil {
		return nil, fmt.Errorf("fednode: %w", err)
	}
	groups := plan.Groups()
	byID := make(map[int]int, len(groups))
	for i, g := range groups {
		byID[g.ID] = i
	}

	// Push the assignment: one GroupAssign per group to its edge, then a
	// sentinel (From = -1) closing the stream.
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

	global := c.sys.NewModel(c.sys.ModelSeed)
	globalParams := global.ParamVector()
	if cfg.InitParams != nil {
		if len(cfg.InitParams) != len(globalParams) {
			return nil, fmt.Errorf("fednode: InitParams length %d, model has %d", len(cfg.InitParams), len(globalParams))
		}
		copy(globalParams, cfg.InitParams)
	}

	rep := &Report{}
	start := time.Now()
	bytesMark := c.meter.Written()
	for t := 0; t < cfg.GlobalRounds; t++ {
		roundSpan := c.meter.Registry().Start("fel_fednode_round_seconds", metrics.L("role", "cloud"))
		selected := plan.Next(t)

		// Broadcast the global model with each edge's share of the
		// selection (possibly empty — edges stay in lockstep).
		selByEdge := make([][]int32, numEdges)
		for _, gi := range selected {
			g := groups[gi]
			selByEdge[g.Edge] = append(selByEdge[g.Edge], int32(g.ID))
		}
		for e, conn := range conns {
			msg := &wire.Message{Type: wire.GlobalModel, Round: uint32(t), Floats: globalParams, Ints: selByEdge[e]}
			if err := sendFrame(conn, c.meter, msg, cfg.RoundTimeout); err != nil {
				return nil, fmt.Errorf("fednode: round %d push to edge %d: %w", t, e, err)
			}
		}

		// Collect one GroupAggregate per selected group, concurrently per
		// edge connection, all readers joined before aggregation.
		type aggregate struct {
			gi     int
			params []float64
			drops  int
			recov  int
		}
		var mu sync.Mutex
		aggs := make(map[int]aggregate, len(selected))
		var firstErr error
		var wg sync.WaitGroup
		for e, conn := range conns {
			expect := len(selByEdge[e])
			if expect == 0 {
				continue
			}
			wg.Add(1)
			go func(e int, conn net.Conn, expect int) {
				defer wg.Done()
				for r := 0; r < expect; r++ {
					m, err := expectFrame(conn, c.meter, cfg.RoundTimeout, wire.GroupAggregate)
					if err == nil && int(m.Round) != t {
						err = fmt.Errorf("fednode: edge %d aggregate for round %d during round %d", e, m.Round, t)
					}
					var gi int
					if err == nil {
						var ok bool
						gi, ok = byID[int(m.From)]
						if !ok {
							err = fmt.Errorf("fednode: edge %d reported unknown group %d", e, m.From)
						}
					}
					mu.Lock()
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					agg := aggregate{gi: gi, params: m.Floats}
					if len(m.Ints) == 2 {
						agg.drops, agg.recov = int(m.Ints[0]), int(m.Ints[1])
					}
					aggs[gi] = agg
					mu.Unlock()
				}
			}(e, conn, expect)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}

		// Weighted global aggregation (Alg. 1 line 15 / Eq. 4 / Eq. 35).
		next := make([]float64, len(globalParams))
		updates := make([][]float64, len(selected))
		stat := RoundStat{Round: t, Selected: len(selected), Accuracy: -1, Loss: -1}
		for si, gi := range selected {
			agg, ok := aggs[gi]
			if !ok {
				return nil, fmt.Errorf("fednode: round %d missing aggregate for group %d", t, groups[gi].ID)
			}
			if len(agg.params) != len(next) {
				return nil, fmt.Errorf("fednode: group %d aggregate has %d params, want %d", groups[gi].ID, len(agg.params), len(next))
			}
			updates[si] = agg.params
			stat.Dropouts += agg.drops
			stat.Recoveries += agg.recov
		}
		plan.Fold(updates, globalParams, next, 1)
		globalParams = next

		if cfg.EvalEvery <= 1 || t%cfg.EvalEvery == 0 || t == cfg.GlobalRounds-1 {
			global.SetParamVector(globalParams)
			stat.Accuracy, stat.Loss = core.Evaluate(global, c.sys.Test, 0)
		}
		written := c.meter.Written()
		stat.WireBytes = written - bytesMark
		bytesMark = written
		rep.Rounds = append(rep.Rounds, stat)
		rep.RoundsRun = t + 1
		rep.Dropouts += stat.Dropouts
		rep.Recoveries += stat.Recoveries
		roundSpan.End()
		c.logf("cloud: round %d done: acc=%.4f dropouts=%d recoveries=%d bytes=%d",
			t, stat.Accuracy, stat.Dropouts, stat.Recoveries, stat.WireBytes)
	}

	// Graceful shutdown: broadcast the final model, then wait for every
	// edge's ack so all downstream forwards have drained before we close.
	final := &wire.Message{Type: wire.GlobalAggregate, Round: uint32(cfg.GlobalRounds), Floats: globalParams}
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

	global.SetParamVector(globalParams)
	rep.FinalAccuracy, rep.FinalLoss = core.Evaluate(global, c.sys.Test, 0)
	rep.Params = globalParams
	rep.WallClock = time.Since(start)
	rep.WireWritten = c.meter.Written()
	rep.WireRead = c.meter.Read()
	rep.Frames = c.meter.Frames()
	rep.AccountedBytes = c.meter.Accounted()
	return rep, nil
}
