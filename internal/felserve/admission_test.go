package felserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/fednode"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// frameOf encodes m.
func frameOf(t *testing.T, m *wire.Message) []byte {
	t.Helper()
	frame, err := wire.AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// helloFrame is a JobControl frame with the given opcode and name elements:
// a subscriber's hello, built by hand.
func helloFrame(t *testing.T, seq uint32, name []int32) []byte {
	t.Helper()
	return frameOf(t, &wire.Message{Type: wire.JobControl, Seq: seq, Ints: name})
}

// readRawFrame reads one frame's bytes off r without decoding them.
func readRawFrame(r io.Reader) ([]byte, error) {
	frame := make([]byte, wire.HeaderSize)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame[8:]))...)
	_, err := io.ReadFull(r, frame[wire.HeaderSize:])
	return frame, err
}

// TestMalformedHelloCounted sends the front door everything that is not a
// hello — garbage, a torn frame, a JobControl frame with another opcode, a
// name element that is not a byte (which used to be truncated into a valid
// name and admitted), a name longer than any job's, a bare header announcing
// a 64 MiB payload (which used to be allocated before the peer said a word)
// — and requires each to be dropped without a verdict frame and counted,
// exactly once, under
// fel_serve_subscribers_rejected_total{reason="malformed_hello"}.
func TestMalformedHelloCounted(t *testing.T) {
	before := runtime.NumGoroutine()
	nw := fednode.NewMemNetwork()
	ln, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{StartHeld: true})
	svc.Serve(ln)
	spec := demoSpecs(3)[0]
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}

	wrapped := nameInts(spec.Name)
	wrapped[0] += 256 // byte(wrapped[0]) is still the name's first letter
	valid := helloFrame(t, opHello, nameInts(spec.Name))
	oversize := append([]byte(nil), valid[:wire.HeaderSize]...)
	binary.BigEndian.PutUint32(oversize[8:], wire.DefaultMaxFrame)
	probes := []struct {
		name  string
		bytes []byte
		// torn: the handler is left mid-payload, and only the peer's close
		// ends its read.
		torn bool
	}{
		{name: "garbage prefix", bytes: bytes.Repeat([]byte{0xA5}, wire.HeaderSize)},
		{name: "torn hello", bytes: valid[:len(valid)-5], torn: true},
		{name: "wrong opcode", bytes: helloFrame(t, opAdmit, nameInts(spec.Name))},
		{name: "name element out of byte range", bytes: helloFrame(t, opHello, wrapped)},
		{name: "name longer than a job's may be", bytes: helloFrame(t, opHello, make([]int32, maxJobName+1))},
		// A header alone, announcing the largest frame wire accepts: refused
		// before any payload buffer is taken, not read into 64 MiB.
		{name: "header announcing a 64 MiB hello", bytes: oversize},
	}
	rejected := func() int64 {
		return svc.Registry().CounterValue("fel_serve_subscribers_rejected_total", metrics.L("reason", "malformed_hello"))
	}
	for i, p := range probes {
		conn, err := nw.Dial("cloud")
		if err != nil {
			t.Fatal(err)
		}
		// Bounded, so a handler that never answers fails the probe, not the run.
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// A frame refused at its header is hung up on before the rest is read.
		if _, err := conn.Write(p.bytes); err != nil && !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("%s: write: %v", p.name, err)
		}
		if p.torn {
			closeQuiet(conn)
		} else if frame, err := readRawFrame(conn); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: got a %d-byte answer (err %v), want the connection closed with no verdict", p.name, len(frame), err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for rejected() != int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: malformed_hello counter reads %d, want %d", p.name, rejected(), i+1)
			}
			time.Sleep(time.Millisecond)
		}
		closeQuiet(conn)
	}

	// The front door still admits a well-formed hello afterwards.
	conn, err := nw.Dial("cloud")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Subscribe(conn, spec.Name); err != nil {
		t.Fatalf("well-formed hello after the malformed ones: %v", err)
	}
	closeQuiet(conn)
	if got, want := rejected(), int64(len(probes)); got != want {
		t.Fatalf("malformed_hello counter reads %d after a valid hello, want %d", got, want)
	}
	if v := svc.subAdmitted.Value(); v != 1 {
		t.Fatalf("fel_serve_subscribers_admitted_total = %d, want 1", v)
	}
	svc.Kill()
	waitGoroutines(t, before)
}

// TestFanoutFramesIdentical holds the fan-out to "encoded once per version,
// written to every subscriber": raw connections (hello by hand, no
// Subscription, no decoding) record the byte stream of one job, and every
// frame any of them received must be, byte for byte, the encoding of that
// version's parameters as a reference trainer on the same spec computes
// them. The stream ends in the GlobalAggregate frame of Result.Params, and a
// subscriber that joins after the job finished gets exactly that frame and
// then EOF. ci.sh runs this under -race with every handler writing the same
// frame bytes at once, so a writer that touched them would be reported.
func TestFanoutFramesIdentical(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := demoSpecs(17)[1] // SCAFFOLD with dropout: the busier tenant
	spec.Rounds = 6

	// want[v] is version v's frame; the reference run shares nothing with
	// the service but the spec.
	ref := core.NewTrainer(spec.System(), spec.TrainConfig(nil))
	encode := func(typ wire.Type, version int, params []float64) []byte {
		return frameOf(t, &wire.Message{Type: typ, Round: uint32(version), Floats: params})
	}
	want := [][]byte{encode(wire.GlobalModel, 0, ref.Params())}
	for !ref.Done() {
		ref.Step()
		want = append(want, encode(wire.GlobalModel, ref.Round(), ref.Params()))
	}
	wantFinal := encode(wire.GlobalAggregate, spec.Rounds, ref.Finish().Params)

	nw := fednode.NewMemNetwork()
	ln, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{StartHeld: true})
	svc.Serve(ln)
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// join says hello by hand and checks the verdict.
	join := func() net.Conn {
		conn, err := nw.Dial("cloud")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(helloFrame(t, opHello, nameInts(spec.Name))); err != nil {
			t.Fatal(err)
		}
		verdict, err := wire.Decode(conn, 0)
		if err != nil || verdict.Type != wire.JobControl || verdict.Seq != opAdmit {
			t.Fatalf("verdict %+v, err %v; want an admit", verdict, err)
		}
		return conn
	}
	// record reads frames until the connection closes.
	record := func(conn net.Conn) ([][]byte, error) {
		var frames [][]byte
		for {
			frame, err := readRawFrame(conn)
			if errors.Is(err, io.EOF) && frame == nil {
				return frames, nil
			}
			if err != nil {
				return frames, err
			}
			frames = append(frames, frame)
		}
	}
	// check holds one recorded stream to the reference frames.
	check := func(who string, frames [][]byte) {
		t.Helper()
		if len(frames) == 0 || !bytes.Equal(frames[len(frames)-1], wantFinal) {
			t.Errorf("%s: stream of %d frames does not end in the GlobalAggregate frame of Result.Params", who, len(frames))
			return
		}
		last := -1
		for i, frame := range frames[:len(frames)-1] {
			v := int(binary.BigEndian.Uint32(frame[4:]))
			if v <= last || v >= len(want) {
				t.Errorf("%s: frame %d carries version %d after %d", who, i, v, last)
				return
			}
			last = v
			if !bytes.Equal(frame, want[v]) {
				t.Errorf("%s: version %d's frame differs from the encoding of that version's parameters", who, v)
			}
		}
	}

	const subscribers = 8
	type stream struct {
		frames [][]byte
		err    error
	}
	streams := make(chan stream, subscribers)
	for i := 0; i < subscribers; i++ {
		conn := join()
		go func() {
			defer closeQuiet(conn)
			frames, err := record(conn)
			streams <- stream{frames, err}
		}()
	}
	svc.Start()
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	versions := 0
	for i := 0; i < subscribers; i++ {
		s := <-streams
		if s.err != nil {
			t.Fatalf("subscriber %d: %v", i, s.err)
		}
		check(fmt.Sprintf("subscriber %d", i), s.frames)
		versions += len(s.frames)
	}
	t.Logf("%d subscribers received %d frames of %d versions", subscribers, versions, len(want))

	final, err := wire.Decode(bytes.NewReader(wantFinal), 0)
	if err != nil || !sameBits(final.Floats, res.Params) {
		t.Fatalf("the reference aggregate differs from the served job's Result.Params (err %v)", err)
	}

	late := join()
	frames, err := record(late)
	closeQuiet(late)
	if err != nil || len(frames) != 1 || !bytes.Equal(frames[0], wantFinal) {
		t.Fatalf("late joiner got %d frames (err %v), want exactly the aggregate frame", len(frames), err)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestSilentSubscriberDroppedAtHelloTimeout runs the front door on a
// faultnet-wrapped network, whose time is simulated, against one peer of
// each kind on one service, with exact counts:
//   - silent: connects and never speaks; dropped at exactly helloTimeout and
//     counted once as hello_timeout;
//   - garbage: its hello is corrupted in flight; dropped with no verdict,
//     counted once as malformed_hello, one corrupt injected;
//   - slow: every model version reaches it late; one delay injected per
//     GlobalModel frame it decodes;
//   - honest.
//
// The job then runs all its rounds, both admitted streams end on a final
// frame bit-equal to the job's result, and no goroutine outlives the service.
// A wall-clock watchdog kills the service, so a front door that misses a
// drop fails here instead of hanging the run.
func TestSilentSubscriberDroppedAtHelloTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := &faultnet.Plan{Name: "front-door", Seed: 5, Rules: []faultnet.Rule{
		{From: "garbage", To: "cloud", Type: "JobControl", Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionCorrupt, Flips: 3},
		{From: "cloud", To: "slow", Type: "GlobalModel", Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionDelay, DelayMs: 5},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	nw := faultnet.Wrap(fednode.NewMemNetwork(), plan, nil)
	ln, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{StartHeld: true})
	svc.Serve(ln)
	watchdog := time.AfterFunc(time.Minute, svc.Kill)
	defer watchdog.Stop()
	spec := demoSpecs(3)[0]
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dial := func(tag string) net.Conn {
		conn, err := nw.DialFrom(tag, "cloud")
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	rejected := func(reason string) int64 {
		return svc.Registry().CounterValue("fel_serve_subscribers_rejected_total", metrics.L("reason", reason))
	}

	silent := dial("silent")
	clk := nw.Clock()
	start := clk.Now()
	_, err = silent.Read(make([]byte, 1))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("silent peer read %v, want the front door to close the connection", err)
	}
	if got := clk.Now().Sub(start); got != helloTimeout {
		t.Fatalf("silent peer dropped at +%v of simulated time, want exactly +%v", got, helloTimeout)
	}
	closeQuiet(silent)

	garbage := dial("garbage")
	if _, err := Subscribe(garbage, spec.Name); err == nil {
		t.Fatal("a corrupted hello was admitted")
	}
	closeQuiet(garbage)
	if got := rejected("hello_timeout"); got != 1 {
		t.Fatalf("hello_timeout counter reads %d, want 1", got)
	}
	if got := rejected("malformed_hello"); got != 1 {
		t.Fatalf("malformed_hello counter reads %d, want 1", got)
	}

	// The two admitted peers follow the job to its end.
	type stream struct {
		models int // GlobalModel frames decoded
		final  []float64
		err    error
	}
	follow := func(tag string) <-chan stream {
		conn := dial(tag)
		done := make(chan stream, 1)
		sub, err := Subscribe(conn, spec.Name)
		if err != nil {
			t.Fatalf("%s subscriber: %v", tag, err)
		}
		go func() {
			defer closeQuiet(conn)
			var s stream
			for {
				version, params, final, err := sub.Next()
				if err != nil {
					s.err = err
					break
				}
				if final {
					if version != spec.Rounds {
						s.err = fmt.Errorf("final frame carries round %d, want %d", version, spec.Rounds)
					}
					s.final = append([]float64(nil), params...)
					break
				}
				s.models++
			}
			done <- s
		}()
		return done
	}
	slow, honest := follow("slow"), follow("honest")
	svc.Start()
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsRun != spec.Rounds {
		t.Fatalf("job ran %d rounds, want %d", res.RoundsRun, spec.Rounds)
	}
	s, h := <-slow, <-honest
	for name, st := range map[string]stream{"slow": s, "honest": h} {
		t.Logf("%s subscriber decoded %d of %d model versions", name, st.models, spec.Rounds)
		if st.err != nil || !sameBits(st.final, res.Params) {
			t.Errorf("%s subscriber: stream ended with err %v after %d versions; final frame bit-equal to the result: %v",
				name, st.err, st.models, sameBits(st.final, res.Params))
		}
	}
	if c := nw.Log().Counts(); c[faultnet.ActionDelay] != s.models || c[faultnet.ActionCorrupt] != 1 {
		t.Errorf("injected %v; want one corrupt and one delay per model version the slow subscriber decoded (%d)", c, s.models)
	}
	if v := svc.subAdmitted.Value(); v != 2 {
		t.Fatalf("fel_serve_subscribers_admitted_total = %d, want 2", v)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestDelayedVersionAfterVerdict holds a wrapped connection to its frame
// boundaries past a JobControl frame: a subscriber reads its verdict, then
// version 0, which a rule delays by 50 ms on the way from the cloud. Next
// must return it at exactly +50 ms of simulated time, the rule having fired
// once. A wall-clock watchdog closes the connection, so a reader that lost
// the boundaries fails instead of hanging.
func TestDelayedVersionAfterVerdict(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := &faultnet.Plan{Name: "late-version", Rules: []faultnet.Rule{{
		From: "cloud", To: "sub", Type: "GlobalModel", Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
		Action: faultnet.ActionDelay, DelayMs: 50,
	}}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	nw := faultnet.Wrap(fednode.NewMemNetwork(), plan, nil)
	ln, err := nw.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{StartHeld: true})
	svc.Serve(ln)
	spec := demoSpecs(3)[0]
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	conn, err := nw.DialFrom("sub", "cloud")
	if err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(5*time.Second, func() { closeQuiet(conn) })
	defer watchdog.Stop()
	clk := nw.Clock()
	start := clk.Now()
	sub, err := Subscribe(conn, spec.Name)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	version, _, final, err := sub.Next()
	if err != nil || version != 0 || final {
		t.Fatalf("Next returned version %d final %v err %v, want version 0", version, final, err)
	}
	if got := clk.Now().Sub(start); got != 50*time.Millisecond {
		t.Fatalf("version 0 arrived at +%v of simulated time, want exactly +50ms", got)
	}
	if n := nw.Log().Len(); n != 1 {
		t.Fatalf("log holds %d events, want the one delay:\n%s", n, nw.Log())
	}
	closeQuiet(conn)
	svc.Kill()
	waitGoroutines(t, before)
}

// exhaustedListener fails its first Accepts with fd exhaustion, as a loaded
// TCP listener does, then serves the conns queued on it until closed.
type exhaustedListener struct {
	fails int
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *exhaustedListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *exhaustedListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *exhaustedListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServeRetriesFDExhaustion: two EMFILE accept failures back the front
// door off instead of closing it, and the subscriber behind them is admitted.
func TestServeRetriesFDExhaustion(t *testing.T) {
	before := runtime.NumGoroutine()
	server, client := net.Pipe()
	ln := &exhaustedListener{fails: 2, conns: make(chan net.Conn, 1), done: make(chan struct{})}
	ln.conns <- server
	svc := New(Config{StartHeld: true})
	spec := demoSpecs(3)[0]
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	svc.Serve(ln)
	// Bounded, so a front door that stopped accepting fails here, not the run.
	if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := Subscribe(client, spec.Name); err != nil {
		t.Fatalf("subscriber behind two EMFILE accepts: %v", err)
	}
	closeQuiet(client)
	if v := svc.subAdmitted.Value(); v != 1 {
		t.Fatalf("fel_serve_subscribers_admitted_total = %d, want 1", v)
	}
	svc.Kill()
	waitGoroutines(t, before)
}
