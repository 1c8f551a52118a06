package fednode

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/secagg"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Edge is one edge server: it registers with the cloud, accepts its
// clients, receives the group assignment, and then drives K secure-
// aggregation group rounds per selected group each global round — the
// broadcast → collect → reveal → aggregate → report state machine — with
// straggler deadlines mapping missed masked updates onto secagg dropout
// recovery.
type Edge struct {
	id  int
	sys *core.System
	cfg JobConfig

	// groupRoundHist and aggHist time a group round and its unmasking,
	// role "edge".
	groupRoundHist, aggHist *metrics.Histogram
}

// NewEdge prepares edge server id (an index into sys.Edges), metered by
// cfg.Meter, or by a fresh private meter when that is nil.
func NewEdge(id int, sys *core.System, cfg JobConfig) *Edge {
	cfg = cfg.withDefaults()
	reg, role := cfg.Meter.Registry(), metrics.L("role", "edge")
	return &Edge{
		id: id, sys: sys, cfg: cfg,
		groupRoundHist: reg.Histogram("fel_fednode_group_round_seconds", role),
		aggHist:        reg.Histogram("fel_fednode_secagg_seconds", role),
	}
}

func (e *Edge) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// edgeGroup is one assigned group's connection-side state.
type edgeGroup struct {
	gid     int
	members []int // global client ids, in group order
	samples []int // per-member sample counts
	ng      int   // total group samples
	conns   []net.Conn
	dead    []bool             // true once a member dropped; sticky across rounds
	drops   int                // new deaths observed (reported upstream)
	recov   int                // group rounds completed via dropout recovery
	ops     *secagg.OpCounters // nil for a singleton, which runs no secagg
}

// Run serves the job: dial the cloud at cloudAddr, accept this edge's
// clients on ln, then execute rounds until the final model arrives. A round
// whose groups fail reports the failure of the earliest failing group in the
// cloud's selection order, however the group runners were scheduled. When
// Run returns, every group-runner and collector goroutine has been joined
// and all connections are closed.
func (e *Edge) Run(nw Network, ln net.Listener, cloudAddr string) error {
	cfg := e.cfg
	tag := fmt.Sprintf("edge/%d", e.id)
	rawCloud, err := DialRetry(nw, tag, cloudAddr, cfg.DialAttempts, cfg.DialBackoff, cfg.Meter,
		stats.NewRNG(dialSeed(cfg.Seed, tag)))
	if err != nil {
		return err
	}
	cloudConn := meter(rawCloud, cfg.Meter)
	defer closeQuiet(cloudConn)
	reg := &wire.Message{Type: wire.GroupAssign, From: int32(e.id)}
	if err := sendFrame(cloudConn, cfg.Meter, reg, cfg.RoundTimeout); err != nil {
		return fmt.Errorf("fednode: edge %d register: %w", e.id, err)
	}

	// Accept and register this edge's clients.
	mine := make(map[int]bool, len(e.sys.Edges[e.id]))
	for _, cl := range e.sys.Edges[e.id] {
		mine[cl.ID] = true
	}
	clientConns := make(map[int]net.Conn, len(mine))
	defer func() {
		for _, conn := range clientConns {
			closeQuiet(conn)
		}
	}()
	for len(clientConns) < len(mine) {
		raw, err := AcceptRetry(ln, cfg.DialAttempts, cfg.DialBackoff, cfg.Meter)
		if err != nil {
			return fmt.Errorf("fednode: edge %d accept: %w", e.id, err)
		}
		conn := meter(raw, cfg.Meter)
		hello, err := expectFrame(conn, cfg.Meter, cfg.RoundTimeout, wire.GroupAssign)
		if err != nil {
			closeQuiet(conn)
			return fmt.Errorf("fednode: client registration: %w", err)
		}
		cid := int(hello.From)
		if !mine[cid] {
			closeQuiet(conn)
			return fmt.Errorf("fednode: client %d does not belong to edge %d", cid, e.id)
		}
		if _, dup := clientConns[cid]; dup {
			closeQuiet(conn)
			return fmt.Errorf("fednode: duplicate registration for client %d", cid)
		}
		clientConns[cid] = conn
	}
	e.logf("edge %d: %d clients registered", e.id, len(clientConns))

	// Receive the group assignment and forward each member its group view
	// (group id, its index, the full membership).
	groups := make(map[int]*edgeGroup)
	assigns := make(map[int]*wire.Message, len(mine))
	seats := make(map[int]seat, len(mine))
	for {
		m, err := expectFrame(cloudConn, cfg.Meter, cfg.RoundTimeout, wire.GroupAssign)
		if err != nil {
			return fmt.Errorf("fednode: edge %d assignment: %w", e.id, err)
		}
		if m.From < 0 {
			break
		}
		g := &edgeGroup{gid: int(m.From), members: intsToIDs(m.Ints)}
		g.samples = make([]int, len(g.members))
		g.conns = make([]net.Conn, len(g.members))
		g.dead = make([]bool, len(g.members))
		if len(g.members) > 1 {
			g.ops = secagg.NewOpCounters(cfg.Meter.Registry(), len(g.members))
		}
		for i, cid := range g.members {
			ref := clientByID(e.sys, cid)
			conn := clientConns[cid]
			if ref == nil || conn == nil {
				return fmt.Errorf("fednode: group %d member %d unknown at edge %d", g.gid, cid, e.id)
			}
			g.samples[i] = ref.NumSamples()
			g.ng += g.samples[i]
			g.conns[i] = conn
			seats[cid] = seat{g: g, idx: i}
		}
		groups[g.gid] = g
		for i, cid := range g.members {
			assign := &wire.Message{Type: wire.GroupAssign, From: int32(g.gid), Seq: uint32(i), Ints: m.Ints}
			assigns[cid] = assign
			if err := sendFrame(clientConns[cid], cfg.Meter, assign, cfg.RoundTimeout); err != nil {
				return fmt.Errorf("fednode: forward assignment to client %d: %w", cid, err)
			}
		}
	}
	e.logf("edge %d: %d groups assigned", e.id, len(groups))

	// From here on the listener serves crash-restarted clients: the rejoin
	// loop replays their assignment and queues them for adoption at the next
	// round boundary. Closing ln is what stops the loop, so Run owns the
	// close from this point (closeQuiet is idempotent-safe for both listener
	// kinds).
	rejoinCh := make(chan rejoin, len(mine))
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		e.rejoinLoop(ln, mine, assigns, rejoinCh)
	}()
	defer func() {
		closeQuiet(ln)
		<-acceptDone
		e.drainRejoins(rejoinCh)
	}()

	cloud := &lockedConn{conn: cloudConn}
	for {
		// Between rounds the edge blocks on the cloud without a deadline:
		// the cloud decides the job's pace.
		m := new(wire.Message)
		if err := readFrame(cloudConn, cfg.Meter, 0, m); err != nil {
			return fmt.Errorf("fednode: edge %d read from cloud: %w", e.id, err)
		}
		switch m.Type {
		case wire.GlobalModel:
			e.adoptRejoins(rejoinCh, seats, clientConns)
			t := int(m.Round)
			for _, gidRaw := range m.Ints {
				if groups[int(gidRaw)] == nil {
					return fmt.Errorf("fednode: edge %d asked to run unknown group %d", e.id, gidRaw)
				}
			}
			errs := make([]error, len(m.Ints))
			cpu.Each(len(errs), len(errs), func(_, i int) {
				errs[i] = e.runGroup(groups[int(m.Ints[i])], t, m.Floats, cloud)
			})
			if err := firstErr(errs); err != nil {
				return err
			}
		case wire.GlobalAggregate:
			// Graceful shutdown: adopt any last rejoins so they receive the
			// final model too, forward it to every live client, ack the
			// cloud, and drain.
			e.adoptRejoins(rejoinCh, seats, clientConns)
			for cid, conn := range clientConns {
				if s, ok := seats[cid]; ok && s.g.dead[s.idx] {
					continue
				}
				if err := sendFrame(conn, cfg.Meter, m, cfg.RoundTimeout); err != nil {
					return fmt.Errorf("fednode: forward final model to client %d: %w", cid, err)
				}
			}
			ack := &wire.Message{Type: wire.GlobalAggregate, Round: m.Round, From: int32(e.id)}
			if err := cloud.send(cfg.Meter, ack, cfg.RoundTimeout); err != nil {
				return fmt.Errorf("fednode: edge %d shutdown ack: %w", e.id, err)
			}
			return nil
		default:
			return fmt.Errorf("fednode: edge %d unexpected %s frame from cloud", e.id, m.Type)
		}
	}
}

// seat locates one client's place in its group: the edge adopts a rejoining
// client back into exactly this slot.
type seat struct {
	g   *edgeGroup
	idx int
}

// rejoin is one crash-restarted client that has re-registered and received
// its assignment replay, waiting for adoption at a round boundary.
type rejoin struct {
	cid  int
	conn net.Conn
}

// rejoinLoop serves the edge's listener after initial registration: each
// accepted connection is a crash-restarted client re-registering. The loop
// validates the hello, replays the client's stored group assignment, and
// queues the connection for adoption. A malformed or foreign hello just
// drops the connection — a chaos run must not let one corrupted
// registration kill the edge — and every drop is counted by reason
// (rejectRejoin). The loop exits when ln closes.
func (e *Edge) rejoinLoop(ln net.Listener, mine map[int]bool, assigns map[int]*wire.Message, ch chan<- rejoin) {
	cfg := e.cfg
	for {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		conn := meter(raw, cfg.Meter)
		hello, err := expectFrame(conn, cfg.Meter, cfg.RoundTimeout, wire.GroupAssign)
		if err != nil {
			e.rejectRejoin(conn, "bad_hello")
			continue
		}
		cid := int(hello.From)
		assign := assigns[cid]
		if !mine[cid] || assign == nil {
			e.rejectRejoin(conn, "foreign")
			continue
		}
		if err := sendFrame(conn, cfg.Meter, assign, cfg.RoundTimeout); err != nil {
			e.rejectRejoin(conn, "replay")
			continue
		}
		select {
		case ch <- rejoin{cid: cid, conn: conn}:
			e.logf("edge %d: client %d re-registered", e.id, cid)
		default:
			// The adoption queue is full (a client redialing faster than
			// rounds turn over); drop this attempt, it can redial.
			e.rejectRejoin(conn, "queue_full")
		}
	}
}

// rejectRejoin closes a rejoin connection the edge will not adopt and counts
// it in fel_fednode_rejoin_rejected_total{reason}: "bad_hello" (the first
// frame was not a registration — its decode error, if any, is also in
// fel_wire_decode_errors_total), "foreign" (an id this edge did not assign a
// seat to), "replay" (the assignment replay failed), "queue_full" (the
// adoption queue was full), or "shutdown" (queued, but the job ended before
// the next round boundary).
func (e *Edge) rejectRejoin(conn net.Conn, reason string) {
	e.cfg.Meter.reg.Counter("fel_fednode_rejoin_rejected_total", metrics.L("reason", reason)).Inc()
	closeQuiet(conn)
}

// adoptRejoins plugs queued crash-restarted clients back into their group
// seats. Called only at round boundaries — between the cloud's frames, with
// no group runner in flight — so seat state is safe to mutate: the seat's
// connection is replaced and its dead flag cleared, making the member a
// full secure-aggregation participant again from the next broadcast on.
func (e *Edge) adoptRejoins(ch <-chan rejoin, seats map[int]seat, clientConns map[int]net.Conn) {
	for {
		select {
		case r := <-ch:
			s, ok := seats[r.cid]
			if !ok {
				e.rejectRejoin(r.conn, "foreign")
				continue
			}
			if old := s.g.conns[s.idx]; old != nil && old != r.conn {
				closeQuiet(old)
			}
			s.g.conns[s.idx] = r.conn
			s.g.dead[s.idx] = false
			clientConns[r.cid] = r.conn
			e.cfg.Meter.rejoins.Inc()
			e.logf("edge %d: client %d rejoined group %d", e.id, r.cid, s.g.gid)
		default:
			return
		}
	}
}

// drainRejoins closes rejoin connections that arrived too late to adopt.
// The rejoin loop has already exited when this runs, so the channel has no
// senders left.
func (e *Edge) drainRejoins(ch <-chan rejoin) {
	for {
		select {
		case r := <-ch:
			e.rejectRejoin(r.conn, "shutdown")
		default:
			return
		}
	}
}

// runGroup executes K group rounds for one group in global round t and
// reports the aggregate to the cloud. Each group round walks the
// broadcast → collect → [reveal] → aggregate state machine; clients that
// miss the straggler deadline or whose connection drops become secagg
// dropouts, recovered from the survivors' shares, and stay excluded for the
// rest of the job.
func (e *Edge) runGroup(g *edgeGroup, t int, globalParams []float64, cloud *lockedConn) error {
	cfg := e.cfg
	dim := len(globalParams)
	groupParams := append([]float64(nil), globalParams...)
	n := len(g.members)
	threshold := secagg.Threshold(0, n)
	roundDrops, roundRecov := 0, 0
	var frame []byte // the broadcast's encoding, reused across group rounds

	for k := 0; k < cfg.GroupRounds; k++ {
		kSpan := e.groupRoundHist.Start()
		e.logf("edge: group %d round %d.%d → broadcast", g.gid, t, k)
		// Every member gets the same frame: encode it once, write it n times.
		msg := &wire.Message{Type: wire.GlobalModel, Round: uint32(t), Seq: uint32(k), Floats: groupParams}
		var err error
		if frame, err = wire.AppendFrame(frame[:0], msg); err != nil {
			return fmt.Errorf("fednode: group %d broadcast: %w", g.gid, err)
		}
		for i := range g.members {
			if g.dead[i] {
				continue
			}
			if err := sendEncoded(g.conns[i], cfg.Meter, msg.Type, frame, cfg.StragglerTimeout); err != nil {
				// The connection died between rounds; the member becomes a
				// dropout now rather than at collect time.
				e.markDead(g, i, err)
				roundDrops++
			}
		}

		e.logf("edge: group %d round %d.%d → collect", g.gid, t, k)
		masked := make([][]uint64, n)
		var plain []float64 // a singleton group's update, sent in the clear
		collectErr := make([]error, n)
		cpu.Each(n, n, func(_, i int) {
			if g.dead[i] {
				return
			}
			m, err := expectFrame(g.conns[i], cfg.Meter, cfg.StragglerTimeout, wire.MaskedUpdate)
			switch {
			case err != nil:
				collectErr[i] = err
			case n == 1:
				plain = m.Floats
			case len(m.Words) != dim:
				// Like a corrupt frame: the member is a dropout, not a
				// panic or a truncated sum in Aggregate.
				collectErr[i] = fmt.Errorf("fednode: masked update has %d words, want %d", len(m.Words), dim)
			default:
				masked[i] = m.Words
			}
		})
		var dropped []int
		for i := range g.members {
			if g.dead[i] {
				dropped = append(dropped, i)
				continue
			}
			if collectErr[i] != nil {
				e.markDead(g, i, collectErr[i])
				roundDrops++
				dropped = append(dropped, i)
			}
		}

		if n == 1 {
			// Singleton group: secure aggregation needs two parties, so the
			// lone client trains in the clear (nothing to hide from
			// itself). A dropped singleton carries the group model over.
			if len(dropped) == 0 {
				if len(plain) != dim {
					return fmt.Errorf("fednode: group %d singleton update has %d params, want %d", g.gid, len(plain), dim)
				}
				groupParams = plain
			}
			kSpan.End()
			continue
		}

		survivors := n - len(dropped)
		if survivors < threshold {
			return fmt.Errorf("fednode: group %d round %d.%d: %d survivors below threshold %d",
				g.gid, t, k, survivors, threshold)
		}

		sess := secagg.NewSession(n, dim, threshold, sessionSeed(cfg.Seed, t, k, g.gid), secagg.DefaultQuantizer())
		if len(dropped) > 0 {
			e.logf("edge: group %d round %d.%d → reveal", g.gid, t, k)
			if err := e.revealShares(g, sess, t, k, dropped); err != nil {
				return err
			}
			roundRecov++
			cfg.Meter.recoveries.Inc()
		}

		e.logf("edge: group %d round %d.%d → aggregate", g.gid, t, k)
		aggSpan := e.aggHist.Start()
		sum, err := sess.Aggregate(masked, dropped)
		aggSpan.End()
		if err != nil {
			return fmt.Errorf("fednode: group %d round %d.%d aggregate: %w", g.gid, t, k, err)
		}
		sess.PublishOps(g.ops)
		if len(dropped) > 0 {
			// Dropout renormalization: the unmasked sum is
			// Σ_surv (n_i/n_g)·x_i, so scale it by n_g / Σ_surv n_i and the
			// surviving members' weights sum to one.
			survivedSamples := 0
			for i, s := range g.samples {
				if !g.dead[i] {
					survivedSamples += s
				}
			}
			if survivedSamples > 0 {
				scale := float64(g.ng) / float64(survivedSamples)
				for j := range sum {
					sum[j] *= scale
				}
			}
		}
		groupParams = sum
		kSpan.End()
	}

	e.logf("edge: group %d round %d.%d → report", g.gid, t, cfg.GroupRounds)
	g.drops += roundDrops
	g.recov += roundRecov
	out := &wire.Message{
		Type: wire.GroupAggregate, Round: uint32(t), From: int32(g.gid),
		Floats: groupParams, Ints: []int32{int32(roundDrops), int32(roundRecov)},
	}
	return cloud.send(cfg.Meter, out, cfg.RoundTimeout)
}

// markDead retires a member's connection after a drop, tallying the
// dropout — and, when the cause was a deadline rather than a broken
// connection, the straggler timeout — in the meter.
func (e *Edge) markDead(g *edgeGroup, i int, cause error) {
	g.dead[i] = true
	closeQuiet(g.conns[i])
	e.cfg.Meter.dropouts.Inc()
	var ne net.Error
	if errors.As(cause, &ne) && ne.Timeout() {
		e.cfg.Meter.stragglers.Inc()
	}
	e.logf("edge %d: client %d dropped from group %d: %v", e.id, g.members[i], g.gid, cause)
}

// revealShares runs the dropout-recovery exchange: every survivor is told
// the dropped indices and returns the Shamir shares it holds for them. The
// returned shares are checked word-for-word against this edge's own session
// view (the sessions are derived from the same seed), so a tampered or
// desynchronized survivor is caught before reconstruction.
func (e *Edge) revealShares(g *edgeGroup, sess *secagg.Session, t, k int, dropped []int) error {
	cfg := e.cfg
	req := &wire.Message{Type: wire.ShareReveal, Round: uint32(t), Seq: uint32(k), Ints: idsToInts(dropped)}
	isDropped := make(map[int]bool, len(dropped))
	for _, d := range dropped {
		isDropped[d] = true
	}
	for i := range g.members {
		if g.dead[i] || isDropped[i] {
			continue
		}
		if err := sendFrame(g.conns[i], cfg.Meter, req, cfg.StragglerTimeout); err != nil {
			return fmt.Errorf("fednode: group %d reveal request to client %d: %w", g.gid, g.members[i], err)
		}
		reply, err := expectFrame(g.conns[i], cfg.Meter, cfg.StragglerTimeout, wire.ShareReveal)
		if err != nil {
			return fmt.Errorf("fednode: group %d reveal reply from client %d: %w", g.gid, g.members[i], err)
		}
		want, err := sess.HeldShares(i, dropped)
		if err != nil {
			return fmt.Errorf("fednode: group %d: %w", g.gid, err)
		}
		if len(reply.Words) != 2*len(want) {
			return fmt.Errorf("fednode: group %d client %d revealed %d words, want %d",
				g.gid, g.members[i], len(reply.Words), 2*len(want))
		}
		for s, sh := range want {
			if reply.Words[2*s] != sh.X || reply.Words[2*s+1] != sh.Y {
				return fmt.Errorf("fednode: group %d client %d share %d mismatch", g.gid, g.members[i], s)
			}
		}
	}
	return nil
}
