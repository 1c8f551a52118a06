package fednode

import (
	"fmt"
	"sync"

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
//
// A Client holds no model between requests. Each broadcast borrows a
// core.Worker from its System's shared pool (core.System.Workers) for
// train → parameters → scale → mask → encode, and returns it before the
// reply is written, so a slow link never holds a compute slot, and however
// many clients one process hosts they build at most that pool's width of
// models between them. The update's vectors and the encoded reply come from
// pools and live for that one exchange; between requests a client keeps its
// connection, the one Message it decodes every frame into, and the secagg
// session of its latest masked update.
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

// membership is what a client's group assignment fixes for the rest of the
// job, plus the secagg session of its latest masked update, which a
// share-reveal request for that group round needs again.
type membership struct {
	me        *data.Client
	gid, idx  int
	n         int     // group size
	weight    float64 // n_i / n_g
	threshold int

	sess         *secagg.Session
	sessT, sessK int
}

// update is one exchange's scratch: the trained parameters, then their
// masked words. Both are dead once the reply is encoded.
type update struct {
	params []float64
	words  []uint64
}

var updates = sync.Pool{New: func() any { return new(update) }}

// Run dials the edge at edgeAddr and participates until the final global
// model arrives, returning it.
func (c *Client) Run(nw Network, edgeAddr string) ([]float64, error) {
	cfg := c.cfg
	me := clientByID(c.sys, c.id)
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
	st := &membership{me: me, gid: int(assign.From), idx: int(assign.Seq), n: len(assign.Ints), sessT: -1, sessK: -1}
	if st.idx < 0 || st.idx >= st.n || int(assign.Ints[st.idx]) != c.id {
		return nil, fmt.Errorf("fednode: client %d assignment is inconsistent (index %d of %v)", c.id, st.idx, assign.Ints)
	}
	ng := 0
	for _, id := range assign.Ints {
		ref := clientByID(c.sys, int(id))
		if ref == nil {
			return nil, fmt.Errorf("fednode: client %d: unknown group member %d", c.id, id)
		}
		ng += ref.NumSamples()
	}
	st.weight = float64(me.NumSamples()) / float64(ng)
	st.threshold = secagg.Threshold(0, st.n)
	c.logf("client %d: joined group %d as member %d/%d", c.id, st.gid, st.idx, st.n)

	var m wire.Message // every frame from the edge decodes into this one
	for {
		// Between requests the client blocks without a deadline: its edge
		// decides the pace.
		if err := readFrame(conn, c.meter, 0, &m); err != nil {
			return nil, fmt.Errorf("fednode: client %d read: %w", c.id, err)
		}
		switch m.Type {
		case wire.GlobalModel:
			t, k := int(m.Round), int(m.Seq)
			frame, err := c.answer(&m, st)
			if err != nil {
				return nil, err
			}
			err = sendEncoded(conn, c.meter, wire.MaskedUpdate, *frame, cfg.StragglerTimeout)
			frames.Put(frame)
			if err != nil {
				return nil, fmt.Errorf("fednode: client %d submit round %d.%d: %w", c.id, t, k, err)
			}
		case wire.ShareReveal:
			t, k := int(m.Round), int(m.Seq)
			if st.sess == nil || st.sessT != t || st.sessK != k {
				return nil, fmt.Errorf("fednode: client %d asked to reveal shares for round %d.%d without a session", c.id, t, k)
			}
			shares, err := st.sess.HeldShares(st.idx, intsToIDs(m.Ints))
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

// answer runs the client's side of one group-round broadcast m on a worker
// borrowed from the System's pool: local SGD from the group model, then the
// trained parameters, weighted by n_i/n_g and masked unless the group is a
// singleton, encoded as the reply. It returns the frame, from the frames
// pool — the caller writes it and puts it back. The worker is back in the
// pool on every return, before the caller's write.
func (c *Client) answer(m *wire.Message, st *membership) (*[]byte, error) {
	cfg := c.cfg
	t, k := int(m.Round), int(m.Seq)
	pool := c.sys.Workers()
	w := pool.Acquire()
	defer pool.Release(w)

	if dim := w.Model.NumParams(); len(m.Floats) != dim {
		return nil, fmt.Errorf("fednode: client %d: round %d.%d model has %d params, want %d", c.id, t, k, len(m.Floats), dim)
	}
	x, y := w.Load(c.sys, st.me, m.Floats)
	trainSpan := c.meter.Registry().Start("fel_fednode_local_train_seconds", metrics.L("role", "client"))
	w.Train(core.SGDUpdater{}, x, y, core.LocalSeed(cfg.Seed, t, st.gid, c.id), core.LocalContext{
		ClientID: c.id, Anchor: m.Floats,
		Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.LR,
	})
	trainSpan.End()

	u := updates.Get().(*update)
	defer updates.Put(u)
	u.params = w.Model.ParamVectorInto(u.params)
	reply := wire.Message{Type: wire.MaskedUpdate, Round: m.Round, Seq: m.Seq, From: int32(c.id)}
	if st.n == 1 {
		// Singleton group: secure aggregation needs two parties and a lone
		// client has nothing to hide from itself, so it ships plaintext.
		reply.Floats = u.params
	} else {
		for j := range u.params {
			u.params[j] *= st.weight
		}
		maskSpan := c.meter.Registry().Start("fel_fednode_secagg_seconds", metrics.L("role", "client"))
		st.sess = secagg.NewSession(st.n, len(u.params), st.threshold, sessionSeed(cfg.Seed, t, k, st.gid), secagg.DefaultQuantizer())
		st.sessT, st.sessK = t, k
		u.words = st.sess.MaskedUpdateInto(u.words, st.idx, u.params)
		maskSpan.End()
		reply.Words = u.words
		st.sess.PublishOps(c.meter.Registry())
	}
	return encodeFrame(&reply)
}
