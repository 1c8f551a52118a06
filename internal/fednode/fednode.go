// Package fednode runs Group-FEL as a real networked service: a cloud
// coordinator, edge servers, and clients exchanging wire-framed bytes over
// net.Conn — TCP sockets in production, buffered in-memory connections
// (MemNetwork) in tests. It is the
// deployment shape of the paper's Fig. 1: the cloud forms groups and samples
// them each round, edges drive K secure-aggregation group rounds against
// their connected clients, and the cloud aggregates the returned group
// models.
//
// The cloud owns no algorithm. Cloud.Run registers the edges, pushes the
// group assignment, and then steps a core.Trainer — the round loop the
// in-process path runs — over a core.Executor whose RunGroups is the
// broadcast-and-collect across the edge connections; a transport failure
// surfaces as Trainer.Err.
//
// A client holds no model between requests. Every client one process hosts
// trains on a worker borrowed from its System (core.System.BorrowWorker, at
// most procs() built) for the one broadcast it is answering and returns it
// before writing the reply, and its update vectors and reply frame are
// pooled for that exchange — so a loopback job of hundreds of clients holds
// procs() models, not one per client. The edge folds each member's masked
// words into its group's running sum in Z₂⁶⁴ (secagg.Session.Fold) as the
// frame arrives, from a Message lent for that one decode (wire.DecodeFunc),
// so it holds no vector per member across the wait for their training; each
// group keeps its model, its sum and its broadcast frame across rounds, and
// unmasks into the model. The cloud copies each group aggregate into its
// round slot from a lent Message too. A warm global round therefore
// allocates nothing model-sized at any tier: a client's exchange stays
// under one model vector (TestClientExchangeSteadyState), and a whole job's
// round under one per selected group (TestJobRoundSteadyState).
//
// Control plane and failure are real here: stragglers are read deadlines,
// a client dropout is a closed connection or a missed deadline, and the
// edge recovers by collecting Shamir shares from the survivors
// (internal/secagg) — the round completes without the lost update. RunEdge
// is the one launcher of an edge and its clients (RunJob runs one per edge
// beside the cloud): it supervises each client, redialing a failed one
// within the restart budget its network grants — faultnet's plan grants one,
// TCP and MemNetwork none — and reporting it as a Casualty once that is
// spent; a client's death never fails the job. Every
// deadline and retry backoff is read off the clock its connection, listener
// or network carries (internal/clock.Of): the wall clock over TCP and
// MemNetwork, faultnet's simulated clock under a fault plan. The
// data plane stays deterministic: every process builds the same synthetic
// System from the shared seed, so only model parameters, masked updates,
// and shares cross the wire, and a loopback run reproduces the in-process
// trainer (internal/core.Train) up to secure-aggregation quantization.
//
// It is also the repository's modelled clock: on a faultnet network running
// faultnet.ModelPlan (link latency and bandwidth per frame, each client's
// E·H_i(n_i) before its masked update) a round lasts its modelled time in
// simulated seconds on clock.Of(network), with the weights of an undelayed
// run. Report stays measured: WallClock is wall time.
//
// Observability runs through the Meter, a thin façade over an
// internal/metrics registry: per-message-type frame and byte counters
// (fel_wire_*), raw transport bytes and connection retries (fel_net_*),
// dropout/recovery/straggler/restart tallies and per-role phase spans
// (fel_fednode_*), and the secure-aggregation op counters each session
// publishes (fel_secagg_*). Pass a Meter via JobConfig.Meter — or let
// RunJob create a private one — and read Meter.Registry().Snapshot(), or
// serve it live with cmd/felnode's -metrics flag.
package fednode

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/wire"
)

// JobConfig parameterizes one networked Group-FEL job. TrainConfig spells
// its algorithmic fields as the core.Config the cloud's Trainer runs, so a
// loopback run is comparable, seed-for-seed, with the in-process trainer.
type JobConfig struct {
	// GlobalRounds (T), GroupRounds (K), LocalEpochs (E) as in Alg. 1.
	GlobalRounds, GroupRounds, LocalEpochs int
	// BatchSize and LR for local SGD.
	BatchSize int
	LR        float64
	// SampleGroups is S, the groups drawn per global round.
	SampleGroups int
	// Grouping forms groups at the cloud (Alg. 1 lines 2–3). Ignored when
	// Groups is set.
	Grouping grouping.Algorithm
	// Sampling and Weights pick the Sec. 6 schemes.
	Sampling sampling.Method
	Weights  sampling.WeightScheme
	// Seed drives formation, sampling, local shuffling, and the secure
	// aggregation sessions — the same derivations as core.Train, so results
	// line up.
	Seed uint64
	// EvalEvery evaluates the global model every n rounds (0 or 1 = every
	// round); the final round is always evaluated.
	EvalEvery int

	// Groups, when non-nil, skips formation and uses these groups verbatim
	// (the caller already ran an Algorithm). Used by the single-round API.
	Groups []*grouping.Group
	// FixedSelection, when non-nil, overrides sampling: round t trains
	// FixedSelection[t] (indices into the group list). Must have
	// GlobalRounds entries.
	FixedSelection [][]int
	// InitParams, when non-nil, seeds the global model instead of a fresh
	// NewModel(ModelSeed) initialization.
	InitParams []float64

	// StragglerTimeout bounds how long an edge waits for one client's
	// masked update (or share reveal) in a group round; a miss becomes a
	// secagg dropout. Default 5s.
	StragglerTimeout time.Duration
	// RoundTimeout bounds how long the cloud waits for an edge's group
	// aggregates each round, and how long registration may take. Default 2m.
	RoundTimeout time.Duration
	// DialAttempts and DialBackoff bound the connection-establishment retry
	// loop (exponential, capped at 1s per step). Defaults: 10 and 25ms.
	DialAttempts int
	DialBackoff  time.Duration

	// Logf, when non-nil, receives protocol trace lines.
	Logf func(format string, args ...any)
	// Meter, when non-nil, is the shared observability sink for every node
	// this process runs: RunJob threads it through the whole loopback
	// cluster, and Meter.Registry() exposes the counters for snapshots and
	// the felnode -metrics HTTP endpoint. Nil means each entry point creates
	// a private meter.
	Meter *Meter
}

// withDefaults fills zero-valued tuning knobs, a nil Meter and a nil Logf.
func (cfg JobConfig) withDefaults() JobConfig {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.StragglerTimeout <= 0 {
		cfg.StragglerTimeout = 5 * time.Second
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 2 * time.Minute
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 10
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 25 * time.Millisecond
	}
	if cfg.Meter == nil {
		cfg.Meter = NewMeter(nil)
	}
	return cfg
}

// sessionSeed derives the secure-aggregation session seed for (global round
// t, group round k, group gid). Every member and the edge derive the same
// value independently, so no key material crosses the wire.
func sessionSeed(seed uint64, t, k, gid int) uint64 {
	return seed ^
		(uint64(t+1) * 0x9e3779b97f4a7c15) ^
		(uint64(k+1) * 0xc2b2ae3d27d4eb4f) ^
		(uint64(gid+1) * 0xff51afd7ed558ccd)
}

// RoundStat reports what the network adds to one global round, as observed
// at the cloud; Rounds[t] sits beside the Trainer's Records[t], which holds
// the round's accuracy and loss.
type RoundStat struct {
	// Selected is the number of groups trained.
	Selected int
	// Dropouts counts client updates lost this round (timeouts and closed
	// connections); Recoveries counts group rounds completed via secagg
	// dropout recovery.
	Dropouts, Recoveries int
	// WireBytes is the accounted bytes of this round's frames (GlobalModel,
	// MaskedUpdate, ShareReveal, GroupAggregate) sent by all metered nodes
	// (loopback: the whole cluster; distributed: this process). A seeded
	// clean job repeats it exactly.
	WireBytes int64
}

// Report is the outcome of a networked job.
type Report struct {
	// Result is the cloud Trainer's: the per-round Records, FinalAccuracy,
	// FinalLoss, Params, RoundsRun, Participation, and Dropouts, the sum of
	// the per-round counts below.
	*core.Result
	Rounds []RoundStat
	// Recoveries totals the per-round counts.
	Recoveries int
	// Casualties lists, by client id, the clients that failed for good.
	Casualties []Casualty
	// WallClock is the measured (not modeled) job duration.
	WallClock time.Duration
	// WireWritten / WireRead are transport-level byte counts over every
	// metered connection; Frames and AccountedBytes are the send-site frame
	// count and the codec-computed byte total. On a clean loopback run
	// WireWritten == AccountedBytes exactly — the cross-check that the wire
	// codec's accounting matches the bytes that actually moved.
	WireWritten, WireRead int64
	Frames                int64
	AccountedBytes        int64
	// SetupBytes and ShutdownBytes are the accounted bytes of the frames
	// outside every round: GroupAssign (registration, the assignment and a
	// rejoining client's replay) and GlobalAggregate (the final broadcast
	// and its acks). On a clean loopback run SetupBytes, the rounds'
	// WireBytes and ShutdownBytes sum to WireWritten.
	SetupBytes, ShutdownBytes int64
}

// frames recycles encoded frames between sends: a frame's bytes are dead
// once the Write that carries them returns.
var frames = sync.Pool{New: func() any { return new([]byte) }}

// encodeFrame encodes msg into a frame from the frames pool; the caller puts
// it back once the bytes are written.
func encodeFrame(msg *wire.Message) (*[]byte, error) {
	bp := frames.Get().(*[]byte)
	frame, err := wire.AppendFrame((*bp)[:0], msg)
	if err != nil {
		frames.Put(bp)
		return nil, fmt.Errorf("fednode: send %s: %w", msg.Type, err)
	}
	*bp = frame
	return bp, nil
}

// sendFrame encodes msg and writes it to conn as one frame under the write
// deadline, counting it in the meter. A zero timeout disables the deadline.
func sendFrame(conn net.Conn, m *Meter, msg *wire.Message, timeout time.Duration) error {
	bp, err := encodeFrame(msg)
	if err != nil {
		return err
	}
	defer frames.Put(bp)
	return sendEncoded(conn, m, msg.Type, *bp, timeout)
}

// sendEncoded writes one already-encoded frame of type typ to conn in a
// single Write under the write deadline, counting it in the meter — the
// send half of sendFrame, for a broadcaster that encodes once and sends the
// same bytes to many peers. The deadline is read off conn's clock.
func sendEncoded(conn net.Conn, m *Meter, typ wire.Type, frame []byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(clock.Of(conn).Now().Add(timeout)); err != nil {
			return fmt.Errorf("fednode: set write deadline: %w", err)
		}
	}
	// Counted before the write, so a peer that has read the frame finds it
	// counted: when the cloud closes a round, every frame of it is in.
	m.countFrame(typ, len(frame))
	if _, err := conn.Write(frame); err != nil {
		return fmt.Errorf("fednode: send %s: %w", typ, err)
	}
	return nil
}

// readFrame reads one frame from conn into m under the read deadline,
// classifying any decode failure into mt's fel_wire_decode_errors_total. A
// zero timeout blocks indefinitely, and any other is measured on conn's
// clock; a frame whose payload exceeds limit (<= 0: wire.DefaultMaxFrame) is
// refused before it is read. m's previous vectors are overwritten
// (wire.DecodeInto).
func readFrame(conn net.Conn, mt *Meter, timeout time.Duration, limit int, m *wire.Message) error {
	if err := setReadDeadline(conn, timeout); err != nil {
		return err
	}
	err := wire.DecodeInto(conn, limit, m)
	if err != nil {
		mt.countDecodeError(err)
	}
	return err
}

// setReadDeadline arms conn's read deadline timeout from now on conn's clock,
// or clears it when timeout is zero.
func setReadDeadline(conn net.Conn, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = clock.Of(conn).Now().Add(timeout)
	}
	if err := conn.SetReadDeadline(deadline); err != nil {
		return fmt.Errorf("fednode: set read deadline: %w", err)
	}
	return nil
}

// lendFrame reads one frame from conn under the read deadline into a
// Message lent for the call of fn (wire.DecodeFunc), checks its type, and
// returns fn's error: fn folds or copies out what it needs before it
// returns, and the reader holds no decode storage while it waits. Decode
// failures are classified as readFrame's are.
func lendFrame(conn net.Conn, mt *Meter, timeout time.Duration, want wire.Type, fn func(*wire.Message) error) error {
	if err := setReadDeadline(conn, timeout); err != nil {
		return err
	}
	decoded := false
	err := wire.DecodeFunc(conn, wire.DefaultMaxFrame, func(m *wire.Message) error {
		decoded = true
		if err := checkType(m, want); err != nil {
			return err
		}
		return fn(m)
	})
	if err != nil && !decoded {
		mt.countDecodeError(err)
	}
	return err
}

// expectFrame reads one frame into a fresh Message the caller keeps, as
// readFrame does, and checks its type.
func expectFrame(conn net.Conn, mt *Meter, timeout time.Duration, limit int, want wire.Type) (*wire.Message, error) {
	m := new(wire.Message)
	if err := readFrame(conn, mt, timeout, limit, m); err != nil {
		return nil, err
	}
	if err := checkType(m, want); err != nil {
		return nil, err
	}
	return m, nil
}

// maxHelloPayload is a registration hello's payload, a GroupAssign naming
// its sender in From with every vector empty: acceptHello's frame limit, so
// a header announcing more fails at once, before any payload is awaited.
const maxHelloPayload = wire.MinPayload

// dialHello dials addr as the node tagged tag (DialRetry, jittered by the
// node's seed) and sends its hello naming id, returning the metered
// connection.
func dialHello(nw Network, cfg JobConfig, tag, addr string, id int) (net.Conn, error) {
	raw, err := DialRetry(nw, tag, addr, cfg.DialAttempts, cfg.DialBackoff, cfg.Meter,
		stats.NewRNG(dialSeed(cfg.Seed, tag)))
	if err != nil {
		return nil, err
	}
	conn := meter(raw, cfg.Meter)
	hello := &wire.Message{Type: wire.GroupAssign, From: int32(id)}
	if err := sendFrame(conn, cfg.Meter, hello, cfg.RoundTimeout); err != nil {
		closeQuiet(conn)
		return nil, fmt.Errorf("fednode: %s register: %w", tag, err)
	}
	return conn, nil
}

// acceptHello accepts the next peer on ln (AcceptRetry) and reads its hello
// under cfg.RoundTimeout, returning the metered connection and the id the
// hello names. A failed accept returns no connection; a bad hello returns
// the connection, closed, beside the error.
func acceptHello(ln net.Listener, cfg JobConfig) (net.Conn, int, error) {
	raw, err := AcceptRetry(ln, cfg.DialAttempts, cfg.DialBackoff, cfg.Meter)
	if err != nil {
		return nil, 0, fmt.Errorf("fednode: accept: %w", err)
	}
	conn := meter(raw, cfg.Meter)
	hello, err := expectFrame(conn, cfg.Meter, cfg.RoundTimeout, maxHelloPayload, wire.GroupAssign)
	if err != nil {
		closeQuiet(conn)
		return conn, 0, fmt.Errorf("fednode: registration hello: %w", err)
	}
	return conn, int(hello.From), nil
}

// checkType returns an error unless m is a frame of type want.
func checkType(m *wire.Message, want wire.Type) error {
	if m.Type != want {
		return fmt.Errorf("fednode: got %s frame, want %s", m.Type, want)
	}
	return nil
}

// lockedConn serializes frame writes to one conn shared by several
// goroutines (an edge's group runners all report to the cloud).
type lockedConn struct {
	mu   sync.Mutex
	conn net.Conn
}

func (l *lockedConn) send(m *Meter, msg *wire.Message, timeout time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sendFrame(l.conn, m, msg, timeout)
}

// clientByID returns client id of sys, or nil when sys has no such client.
// Client IDs are dense — sys.Clients[id].ID == id, as both partitions
// number them (data.DirichletPartition, data.VirtualPartition) — so the
// lookup is an index, checked, not a scan or a map.
func clientByID(sys *core.System, id int) *data.Client {
	if id < 0 || id >= len(sys.Clients) || sys.Clients[id].ID != id {
		return nil
	}
	return sys.Clients[id]
}

// intsToIDs converts a wire id list to ints.
func intsToIDs(xs []int32) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// idsToInts converts ints to a wire id list.
func idsToInts(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
