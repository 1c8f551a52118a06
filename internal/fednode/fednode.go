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
// trains on a worker borrowed from its System's shared pool
// (core.System.Workers, procs() wide) for the one broadcast it is answering
// and returns it before writing the reply, and its update vectors and reply
// frame are pooled for that exchange — so a loopback job of hundreds of
// clients holds procs() models, not one per client, and a warm exchange
// allocates nothing model-sized on the client's side.
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

// withDefaults fills zero-valued tuning knobs and a nil Meter.
func (cfg JobConfig) withDefaults() JobConfig {
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

// RoundStat reports one global round as observed at the cloud.
type RoundStat struct {
	Round int
	// Accuracy and Loss on the held-out test set (-1 when skipped).
	Accuracy, Loss float64
	// Selected is the number of groups trained.
	Selected int
	// Dropouts counts client updates lost this round (timeouts and closed
	// connections); Recoveries counts group rounds completed via secagg
	// dropout recovery.
	Dropouts, Recoveries int
	// WireBytes is the transport bytes written by all metered nodes during
	// this round (loopback: the whole cluster; distributed: this process).
	WireBytes int64
}

// Report is the outcome of a networked job.
type Report struct {
	Rounds []RoundStat
	// FinalAccuracy and FinalLoss are measured after the last round.
	FinalAccuracy, FinalLoss float64
	// Params is the final global parameter vector.
	Params []float64
	// RoundsRun counts completed global rounds.
	RoundsRun int
	// Dropouts and Recoveries total the per-round counts.
	Dropouts, Recoveries int
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
	n, err := conn.Write(frame)
	if err != nil {
		return fmt.Errorf("fednode: send %s: %w", typ, err)
	}
	if m != nil {
		m.countFrame(typ, n)
	}
	return nil
}

// readFrame reads one frame from conn into m under the read deadline,
// classifying any decode failure into mt's fel_wire_decode_errors_total (mt
// may be nil). A zero timeout blocks indefinitely, and any other is measured
// on conn's clock; a frame whose payload exceeds wire.DefaultMaxFrame is
// refused before it is read. m's previous vectors are overwritten
// (wire.DecodeInto).
func readFrame(conn net.Conn, mt *Meter, timeout time.Duration, m *wire.Message) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = clock.Of(conn).Now().Add(timeout)
	}
	if err := conn.SetReadDeadline(deadline); err != nil {
		return fmt.Errorf("fednode: set read deadline: %w", err)
	}
	err := wire.DecodeInto(conn, wire.DefaultMaxFrame, m)
	if err != nil && mt != nil {
		mt.countDecodeError(err)
	}
	return err
}

// expectFrame reads one frame into a fresh Message the caller keeps, and
// checks its type.
func expectFrame(conn net.Conn, mt *Meter, timeout time.Duration, want wire.Type) (*wire.Message, error) {
	m := new(wire.Message)
	if err := readFrame(conn, mt, timeout, m); err != nil {
		return nil, err
	}
	if m.Type != want {
		return nil, fmt.Errorf("fednode: got %s frame, want %s", m.Type, want)
	}
	return m, nil
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
