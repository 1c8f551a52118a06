package fednode

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/secagg"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Client is one federated client process: it registers with its edge,
// receives its group assignment, answers each group-round broadcast with
// local SGD and a masked (or, in a singleton group, plaintext) update, and
// serves share-reveal requests during dropout recovery. Local training is
// seeded by core.LocalSeed, the derivation the in-process engine uses, so a
// clean loopback run follows the in-process trainer's trajectory.
type Client struct {
	id    int
	sys   *core.System
	cfg   JobConfig
	meter *Meter
}

// NewClient prepares client id (a global client id from the system). meter
// may be nil (falls back to cfg.Meter, then to a fresh private meter).
func NewClient(id int, sys *core.System, cfg JobConfig, meter *Meter) *Client {
	if meter == nil {
		meter = cfg.Meter
	}
	if meter == nil {
		meter = NewMeter(nil)
	}
	return &Client{id: id, sys: sys, cfg: cfg.withDefaults(), meter: meter}
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Run dials the edge at edgeAddr and participates until the final global
// model arrives, returning it — or until the injected ForceDrop disconnect,
// returning (nil, nil).
func (c *Client) Run(nw Network, edgeAddr string) ([]float64, error) {
	cfg := c.cfg
	var me *data.Client
	for _, cl := range c.sys.Clients {
		if cl.ID == c.id {
			me = cl
			break
		}
	}
	if me == nil {
		return nil, fmt.Errorf("fednode: client %d not in system", c.id)
	}

	tag := fmt.Sprintf("client/%d", c.id)
	raw, err := DialRetry(nw, tag, edgeAddr, cfg.DialAttempts, cfg.DialBackoff, c.meter,
		stats.NewRNG(dialSeed(cfg.Seed, tag)))
	if err != nil {
		return nil, err
	}
	conn := meter(raw, c.meter)
	defer closeQuiet(conn)
	hello := &wire.Message{Type: wire.GroupAssign, From: int32(c.id)}
	if err := sendFrame(conn, c.meter, hello, cfg.RoundTimeout); err != nil {
		return nil, fmt.Errorf("fednode: client %d register: %w", c.id, err)
	}

	// Group assignment: group id, this client's index within the group, and
	// the full membership (needed to derive the secagg session locally).
	assign, err := expectFrame(conn, c.meter, cfg.RoundTimeout, wire.GroupAssign)
	if err != nil {
		return nil, fmt.Errorf("fednode: client %d assignment: %w", c.id, err)
	}
	gid := int(assign.From)
	myIdx := int(assign.Seq)
	members := intsToIDs(assign.Ints)
	n := len(members)
	if myIdx < 0 || myIdx >= n || members[myIdx] != c.id {
		return nil, fmt.Errorf("fednode: client %d assignment is inconsistent (index %d of %v)", c.id, myIdx, members)
	}
	refs := clientsByID(c.sys)
	ng := 0
	for _, id := range members {
		ref := refs[id]
		if ref == nil {
			return nil, fmt.Errorf("fednode: client %d: unknown group member %d", c.id, id)
		}
		ng += ref.samples
	}
	w := float64(me.NumSamples()) / float64(ng)
	threshold := secagg.Threshold(0, n)
	c.logf("client %d: joined group %d as member %d/%d", c.id, gid, myIdx, n)

	model := c.sys.NewModel(c.sys.ModelSeed)
	var sess *secagg.Session
	sessT, sessK := -1, -1

	for {
		// Between requests the client blocks without a deadline: its edge
		// decides the pace.
		m, err := readFrame(conn, c.meter, 0)
		if err != nil {
			return nil, fmt.Errorf("fednode: client %d read: %w", c.id, err)
		}
		switch m.Type {
		case wire.GlobalModel:
			t, k := int(m.Round), int(m.Seq)
			groupParams := m.Floats
			model.SetParamVector(groupParams)
			x, y := c.sys.ClientBatch(me)
			trainSpan := c.meter.Registry().Start("fel_fednode_local_train_seconds", metrics.L("role", "client"))
			core.SGDUpdater{}.LocalTrain(model, x, y, core.LocalContext{
				ClientID: c.id, Anchor: groupParams,
				Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.LR,
				Rng: stats.NewRNG(core.LocalSeed(cfg.Seed, t, gid, c.id)),
			})
			trainSpan.End()
			if d := cfg.ForceDrop; d != nil && d.Client == c.id && d.Round == t && d.GroupRound == k {
				// Fault injection: vanish after training, before submitting —
				// the edge must recover via secagg dropout handling.
				c.logf("client %d: injected disconnect in round %d.%d", c.id, t, k)
				return nil, nil
			}
			params := model.ParamVector()
			reply := &wire.Message{Type: wire.MaskedUpdate, Round: m.Round, Seq: m.Seq, From: int32(c.id)}
			if n == 1 {
				// Singleton group: nothing to hide from itself; ship plaintext
				// (the hfl convention).
				reply.Floats = params
			} else {
				// Weight in place: params is this client's own copy.
				for j := range params {
					params[j] *= w
				}
				sess = secagg.NewSession(n, len(params), threshold, sessionSeed(cfg.Seed, t, k, gid), secagg.DefaultQuantizer())
				sessT, sessK = t, k
				reply.Words = sess.MaskedUpdate(myIdx, params)
				sess.PublishOps(c.meter.Registry())
			}
			if err := sendFrame(conn, c.meter, reply, cfg.StragglerTimeout); err != nil {
				return nil, fmt.Errorf("fednode: client %d submit round %d.%d: %w", c.id, t, k, err)
			}
		case wire.ShareReveal:
			t, k := int(m.Round), int(m.Seq)
			if sess == nil || sessT != t || sessK != k {
				return nil, fmt.Errorf("fednode: client %d asked to reveal shares for round %d.%d without a session", c.id, t, k)
			}
			shares, err := sess.HeldShares(myIdx, intsToIDs(m.Ints))
			if err != nil {
				return nil, fmt.Errorf("fednode: client %d reveal: %w", c.id, err)
			}
			words := make([]uint64, 0, 2*len(shares))
			for _, sh := range shares {
				words = append(words, sh.X, sh.Y)
			}
			c.meter.Registry().Counter("fel_fednode_shares_revealed_total").Add(int64(len(shares)))
			out := &wire.Message{Type: wire.ShareReveal, Round: m.Round, Seq: m.Seq, From: int32(c.id), Words: words}
			if err := sendFrame(conn, c.meter, out, cfg.StragglerTimeout); err != nil {
				return nil, fmt.Errorf("fednode: client %d reveal reply: %w", c.id, err)
			}
		case wire.GlobalAggregate:
			c.logf("client %d: received final model", c.id)
			return m.Floats, nil
		default:
			return nil, fmt.Errorf("fednode: client %d unexpected %s frame", c.id, m.Type)
		}
	}
}
