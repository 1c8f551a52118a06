package felserve

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/clock"
	"repro/internal/fednode"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Admission control: one listener multiplexes subscribers for every job on
// the service. A subscriber opens a connection, sends a JobControl hello
// naming its job, and receives an admit or reject verdict; a connection
// whose first frame is not a well-formed hello, or that sends none within
// helloTimeout, is counted and closed with no verdict. Admitted
// subscribers immediately get the job's current model version — a late
// joiner adopts the live model, the serving-layer generalization of
// fednode's crash-rejoin adoption — and then a GlobalModel frame per
// published round, coalesced latest-wins: a subscriber that cannot keep up
// skips intermediate versions instead of buffering them, so no consumer can
// apply backpressure to training or grow an unbounded queue. A version is
// encoded once per version, by the job when it publishes, and written to
// every subscriber: the mailbox carries the frame's bytes, shared and never
// modified, so the fan-out costs one Write per subscriber and no encoding.
// When the job finishes, the final model arrives as GlobalAggregate and the
// connection closes.

// JobControl opcodes, carried in the frame's Seq field.
const (
	opHello uint32 = 1 + iota
	opAdmit
	opRejectUnknown
	opRejectBusy
)

// Subscription errors a client can match with errors.Is.
var (
	ErrUnknownJob = errors.New("felserve: unknown job")
	ErrJobBusy    = errors.New("felserve: job at subscriber capacity")
)

// subscriber is the service-side state of one admitted connection: a
// one-slot latest-version mailbox plus a level-triggered notify channel.
type subscriber struct {
	id     int
	notify chan struct{}

	// Guarded by the owning job's mu (offer runs under it); the handler
	// reads through take, which re-locks. frame is the version's encoding,
	// shared with every other subscriber of the job and never written.
	version int
	frame   []byte
	final   bool
}

// offer replaces the mailbox contents with a newer version. Callers hold
// the job's mu. Non-blocking by construction.
func (sub *subscriber) offer(version int, frame []byte, final bool) {
	sub.version = version
	sub.frame = frame
	sub.final = sub.final || final
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// take reads the mailbox under the job lock.
func (j *Job) take(sub *subscriber) (version int, frame []byte, final bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return sub.version, sub.frame, sub.final
}

// addSub admits a subscriber unless the job is at capacity.
func (j *Job) addSub(maxSubs int) (*subscriber, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.subs) >= maxSubs {
		return nil, false
	}
	j.nextSub++
	sub := &subscriber{id: j.nextSub, notify: make(chan struct{}, 1)}
	j.subs[sub.id] = sub
	// Seed the mailbox with the current version so the handler's first
	// wait returns immediately — the late-joiner adoption path.
	sub.offer(j.version, j.frame, j.result != nil || j.err != nil)
	return sub, true
}

// removeSub forgets a departed subscriber.
func (j *Job) removeSub(id int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, id)
}

// Serve accepts subscriber connections on ln until the service stops. It
// returns immediately; accept and handler goroutines are joined by
// Close/Kill. Multiple listeners may serve one service.
func (s *Service) Serve(ln net.Listener) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		closeQuiet(ln)
		return
	}
	s.listeners = append(s.listeners, ln)
	s.connWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.connWG.Done()
		for {
			// Transient accept failures — a timeout, or fd exhaustion
			// (EMFILE, ENFILE) under a subscriber storm — back off and
			// retry instead of killing the front door; anything else means
			// the listener is closed (stop) or broken, and the loop drains.
			conn, err := fednode.AcceptRetry(ln, 5, 10*time.Millisecond, nil)
			if err != nil {
				return
			}
			if !s.track(conn) {
				closeQuiet(conn)
				return
			}
			s.connWG.Add(1)
			go func(conn net.Conn) {
				defer s.connWG.Done()
				defer s.untrack(conn)
				s.handle(conn)
			}(conn)
		}
	}()
}

// track registers a live connection for shutdown teardown.
func (s *Service) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Service) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	closeQuiet(conn)
}

// handle runs one subscriber session: hello, verdict, then the version
// stream until the job completes, the peer leaves, or the service stops.
func (s *Service) handle(conn net.Conn) {
	name, err := readHello(conn)
	if err != nil {
		// The peer is silent or not speaking the protocol: counted, and
		// dropped without a verdict frame.
		reason := "malformed_hello"
		if wire.ErrorClass(err) == "timeout" {
			reason = "hello_timeout"
		}
		s.countRejected(reason)
		return
	}
	j := s.Job(name)
	if j == nil {
		s.reject(conn, opRejectUnknown, "unknown_job")
		return
	}
	maxSubs := s.cfg.MaxSubscribersPerJob
	if maxSubs <= 0 {
		maxSubs = 4096
	}
	sub, ok := j.addSub(maxSubs)
	if !ok {
		s.reject(conn, opRejectBusy, "busy")
		return
	}
	defer j.removeSub(sub.id)
	s.subAdmitted.Inc()
	s.subActive.Add(1)
	defer s.subActive.Add(-1)
	if _, err := wire.Encode(conn, &wire.Message{Type: wire.JobControl, Seq: opAdmit, From: int32(sub.id)}); err != nil {
		return
	}

	sent := -1
	for {
		select {
		case <-s.closing:
			return
		case <-sub.notify:
		}
		version, frame, final := j.take(sub)
		if version > sent {
			if _, err := conn.Write(frame); err != nil {
				return
			}
			sent = version
			s.versionsCtr.Inc()
		} else if final {
			// Already sent this version as GlobalModel; the mailbox now
			// holds its GlobalAggregate encoding, which tells the subscriber
			// the job is over.
			//lint:ignore dropped-error the session ends here either way; the peer detects loss via its read
			conn.Write(frame)
			return
		}
		if final {
			return
		}
	}
}

// errNotHello is readHello's error for a well-framed first frame that is not
// a hello naming a job.
var errNotHello = errors.New("felserve: first frame is not a hello")

// readHello reads a subscriber's hello, within helloTimeout on conn's clock,
// and returns the job it names — one byte of the name per element of Ints.
// A read that times out returns the timeout. A torn or undecodable frame, a
// frame larger than a hello can be (so a name longer than any JobSpec may
// carry), a frame that is not a hello, or an element that is not a byte
// makes the hello malformed.
func readHello(conn net.Conn) (job string, err error) {
	if err := conn.SetReadDeadline(clock.Of(conn).Now().Add(helloTimeout)); err != nil {
		return "", err
	}
	hello, err := wire.Decode(conn, maxHelloPayload)
	if err != nil {
		return "", err
	}
	if hello.Type != wire.JobControl || hello.Seq != opHello {
		return "", errNotHello
	}
	name := make([]byte, len(hello.Ints))
	for i, b := range hello.Ints {
		if b < 0 || b > 255 {
			return "", errNotHello
		}
		name[i] = byte(b)
	}
	return string(name), nil
}

// nameInts spells a job name the way a hello carries it, one element per
// byte — readHello's inverse.
func nameInts(job string) []int32 {
	ints := make([]int32, len(job))
	for i := range ints {
		ints[i] = int32(job[i])
	}
	return ints
}

// countRejected counts one connection turned away before admission.
func (s *Service) countRejected(reason string) {
	s.reg.Counter("fel_serve_subscribers_rejected_total", metrics.L("reason", reason)).Inc()
}

// reject answers a hello with a verdict frame and counts it.
func (s *Service) reject(conn net.Conn, op uint32, reason string) {
	s.countRejected(reason)
	//lint:ignore dropped-error the connection is being refused; the peer sees the close either way
	wire.Encode(conn, &wire.Message{Type: wire.JobControl, Seq: op})
}

// closeQuiet closes c where the close error changes nothing for the caller.
func closeQuiet(c interface{ Close() error }) {
	//lint:ignore dropped-error shutdown-path close; the connection is being abandoned either way
	c.Close()
}

// Subscription is the client side of one admitted connection — what the
// load harness and felnode's serve-mode clients use to follow a job.
type Subscription struct {
	conn net.Conn
	// ID is the service-assigned subscriber id.
	ID int
	// msg receives every frame of the version stream, so a steady stream
	// decodes into the same parameter storage.
	msg wire.Message
}

// Subscribe performs the hello/verdict handshake for job on conn. On
// rejection the returned error matches ErrUnknownJob or ErrJobBusy and the
// caller still owns (and should close) conn.
func Subscribe(conn net.Conn, job string) (*Subscription, error) {
	if _, err := wire.Encode(conn, &wire.Message{Type: wire.JobControl, Seq: opHello, Ints: nameInts(job)}); err != nil {
		return nil, fmt.Errorf("felserve: hello: %w", err)
	}
	verdict, err := wire.Decode(conn, 0)
	if err != nil {
		return nil, fmt.Errorf("felserve: verdict: %w", err)
	}
	if verdict.Type != wire.JobControl {
		return nil, fmt.Errorf("felserve: verdict frame is %s, want JobControl", verdict.Type)
	}
	switch verdict.Seq {
	case opAdmit:
		return &Subscription{conn: conn, ID: int(verdict.From)}, nil
	case opRejectUnknown:
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, job)
	case opRejectBusy:
		return nil, fmt.Errorf("%w: %q", ErrJobBusy, job)
	}
	return nil, fmt.Errorf("felserve: unknown verdict opcode %d", verdict.Seq)
}

// Next blocks for the next model version. final is true when the frame is
// the job's closing GlobalAggregate; the connection is done after it.
//
// params is the subscription's own receive storage: it is valid until the
// next call to Next, which decodes the following version over it. A caller
// that keeps a version past that call copies it.
func (sub *Subscription) Next() (version int, params []float64, final bool, err error) {
	m := &sub.msg
	if err := wire.DecodeInto(sub.conn, 0, m); err != nil {
		return 0, nil, false, err
	}
	switch m.Type {
	case wire.GlobalModel:
		return int(m.Round), m.Floats, false, nil
	case wire.GlobalAggregate:
		return int(m.Round), m.Floats, true, nil
	}
	return 0, nil, false, fmt.Errorf("felserve: unexpected %s frame in version stream", m.Type)
}

// Close releases the subscription's connection.
func (sub *Subscription) Close() error { return sub.conn.Close() }
