package faultnet_test

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/fednode"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/wire"
)

// testMsg builds a small frame with a recognizable payload.
func testMsg(typ wire.Type, round, seq uint32, floats int) *wire.Message {
	m := &wire.Message{Type: typ, Round: round, Seq: seq, From: 7}
	for i := 0; i < floats; i++ {
		m.Floats = append(m.Floats, float64(i)+0.5)
	}
	return m
}

// decodeResult is what the listener half of a test link observed.
type decodeResult struct {
	msg *wire.Message
	err error
}

// acceptAndDecode accepts one conn on ln and decodes count frames from it,
// delivering one result per frame. The returned channel closes when done.
func acceptAndDecode(t *testing.T, ln net.Listener, count int) <-chan decodeResult {
	t.Helper()
	out := make(chan decodeResult, count)
	go func() {
		defer close(out)
		conn, err := ln.Accept()
		if err != nil {
			out <- decodeResult{err: err}
			return
		}
		//lint:ignore dropped-error test cleanup; close failure is irrelevant here
		defer conn.Close()
		for i := 0; i < count; i++ {
			m, err := wire.Decode(conn, 0)
			out <- decodeResult{msg: m, err: err}
			// A checksum failure consumes the whole frame, so the stream
			// stays aligned and decoding can continue; anything else ends
			// the conn.
			if err != nil && !errors.Is(err, wire.ErrChecksum) {
				return
			}
		}
	}()
	return out
}

// wrap builds a faultnet view of a fresh memnet running plan.
func wrap(t *testing.T, plan *faultnet.Plan) *faultnet.Network {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan: %v", err)
	}
	return faultnet.Wrap(fednode.NewMemNetwork(), plan, nil)
}

func TestCorruptFailsChecksumThenStops(t *testing.T) {
	plan := &faultnet.Plan{
		Name: "corrupt", Seed: 1,
		Rules: []faultnet.Rule{{
			From: "client/*", To: "edge/0", Type: "MaskedUpdate",
			Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionCorrupt, Count: 1, Flips: 3,
		}},
	}
	nw := wrap(t, plan)
	ln, err := nw.ListenAs("edge/0", "e0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	results := acceptAndDecode(t, ln, 1)

	conn, err := nw.DialFrom("client/3", "e0")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer conn.Close()
	if _, err := wire.Encode(conn, testMsg(wire.MaskedUpdate, 2, 1, 4)); err != nil {
		t.Fatalf("encode corrupted frame: %v", err)
	}
	r := <-results
	if !errors.Is(r.err, wire.ErrChecksum) {
		t.Fatalf("corrupted frame decoded with err=%v, want ErrChecksum", r.err)
	}
	if got := wire.ErrorClass(r.err); got != "checksum" {
		t.Fatalf("ErrorClass = %q, want checksum", got)
	}

	// Count=1 is spent: the next frame must pass untouched.
	results = acceptAndDecode(t, ln, 1)
	conn2, err := nw.DialFrom("client/3", "e0")
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer conn2.Close()
	want := testMsg(wire.MaskedUpdate, 2, 2, 4)
	if _, err := wire.Encode(conn2, want); err != nil {
		t.Fatalf("encode clean frame: %v", err)
	}
	r = <-results
	if r.err != nil {
		t.Fatalf("clean frame decode: %v", r.err)
	}
	if r.msg.Seq != want.Seq || len(r.msg.Floats) != len(want.Floats) {
		t.Fatalf("clean frame mangled: got %+v", r.msg)
	}

	if c := nw.Log().Counts(); c[faultnet.ActionCorrupt] != 1 {
		t.Fatalf("log counts = %v, want 1 corrupt", c)
	}
}

func TestTruncateSurfacesTruncatedError(t *testing.T) {
	plan := &faultnet.Plan{
		Name: "trunc", Seed: 9,
		Rules: []faultnet.Rule{{
			From: "a", To: "srv",
			Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionTruncate, Count: 1,
		}},
	}
	nw := wrap(t, plan)
	ln, err := nw.ListenAs("srv", "s")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	results := acceptAndDecode(t, ln, 1)

	conn, err := nw.DialFrom("a", "s")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_, werr := wire.Encode(conn, testMsg(wire.GroupAggregate, 1, 0, 8))
	var inj *faultnet.InjectedError
	if !errors.As(werr, &inj) || inj.Action != faultnet.ActionTruncate {
		t.Fatalf("writer saw %v, want injected truncate", werr)
	}
	r := <-results
	if !errors.Is(r.err, wire.ErrTruncated) {
		t.Fatalf("truncated frame decoded with err=%v, want ErrTruncated", r.err)
	}
}

func TestResetDropsFrameAndClosesConn(t *testing.T) {
	plan := &faultnet.Plan{
		Name: "reset", Seed: 4,
		Rules: []faultnet.Rule{{
			From: "a", To: "srv",
			Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionReset, Count: 1,
		}},
	}
	nw := wrap(t, plan)
	ln, err := nw.ListenAs("srv", "s")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	results := acceptAndDecode(t, ln, 1)

	conn, err := nw.DialFrom("a", "s")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_, werr := wire.Encode(conn, testMsg(wire.MaskedUpdate, 0, 0, 2))
	var inj *faultnet.InjectedError
	if !errors.As(werr, &inj) || inj.Action != faultnet.ActionReset {
		t.Fatalf("writer saw %v, want injected reset", werr)
	}
	if r := <-results; r.err == nil {
		t.Fatalf("reader decoded a frame after reset: %+v", r.msg)
	}
	// The conn is dead: a second write fails without matching any rule.
	if _, err := wire.Encode(conn, testMsg(wire.MaskedUpdate, 0, 1, 2)); err == nil {
		t.Fatal("write on reset conn succeeded")
	}
}

func TestReadDelayHonorsDeadlineAsTimeout(t *testing.T) {
	plan := &faultnet.Plan{
		Name: "straggle", Seed: 3,
		Rules: []faultnet.Rule{{
			From: "srv", To: "a", // listener→dialer: the dialer's read side
			Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionDelay, DelayMs: 10_000, Count: 1,
		}},
	}
	nw := wrap(t, plan)
	ln, err := nw.ListenAs("srv", "s")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		//lint:ignore dropped-error test cleanup; close failure is irrelevant here
		defer conn.Close()
		_, err = wire.Encode(conn, testMsg(wire.GlobalModel, 1, 0, 4))
		served <- err
	}()

	conn, err := nw.DialFrom("a", "s")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer conn.Close()
	clk := nw.Clock()
	start := clk.Now()
	if err := conn.SetReadDeadline(start.Add(80 * time.Millisecond)); err != nil {
		t.Fatalf("set deadline: %v", err)
	}
	_, derr := wire.Decode(conn, 0)
	var ne net.Error
	if !errors.As(derr, &ne) || !ne.Timeout() {
		t.Fatalf("delayed read returned %v, want net timeout", derr)
	}
	if got := wire.ErrorClass(derr); got != "timeout" {
		t.Fatalf("ErrorClass = %q, want timeout", got)
	}
	if got := clk.Now().Sub(start); got != 80*time.Millisecond {
		t.Fatalf("read timed out at +%v of simulated time, want exactly the +80ms deadline", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("server write: %v", err)
	}
}

// TestDeadlineOnAcceptedConnIsSimulated holds the listener half to the same
// clock: a read deadline on an accepted connection expires at exactly its
// simulated instant, with nothing written to it.
func TestDeadlineOnAcceptedConnIsSimulated(t *testing.T) {
	nw := faultnet.Wrap(fednode.NewMemNetwork(), &faultnet.Plan{Name: "quiet"}, nil)
	ln, err := nw.ListenAs("srv", "s")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dialed, err := nw.DialFrom("a", "s")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer dialed.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer conn.Close()
	clk := nw.Clock()
	start := clk.Now()
	if err := conn.SetReadDeadline(start.Add(time.Hour)); err != nil {
		t.Fatalf("set deadline: %v", err)
	}
	var ne net.Error
	if _, err := conn.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("silent read returned %v, want a timeout", err)
	}
	if got := clk.Now().Sub(start); got != time.Hour {
		t.Fatalf("accepted conn timed out at +%v of simulated time, want exactly +1h", got)
	}
}

func TestWriteDelayAddsLatency(t *testing.T) {
	plan := &faultnet.Plan{
		Name: "slow", Seed: 8,
		Rules: []faultnet.Rule{{
			From: "a", To: "srv",
			Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionDelay, DelayMs: 60, JitterMs: 20, Count: 1,
		}},
	}
	nw := wrap(t, plan)
	ln, err := nw.ListenAs("srv", "s")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	results := acceptAndDecode(t, ln, 1)

	conn, err := nw.DialFrom("a", "s")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer conn.Close()
	clk := nw.Clock()
	start := clk.Now()
	if _, err := wire.Encode(conn, testMsg(wire.GlobalModel, 0, 0, 1)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if r := <-results; r.err != nil {
		t.Fatalf("decode: %v", r.err)
	}
	var ms int
	if ev := nw.Log().Events(); len(ev) != 1 {
		t.Fatalf("log has %d events, want the one delay", len(ev))
	} else if _, err := fmt.Sscanf(ev[0].Detail, "delay=%dms", &ms); err != nil || ms < 60 || ms > 80 {
		t.Fatalf("delay event %q (err %v), want delay=60..80ms", ev[0].Detail, err)
	}
	if got, want := clk.Now().Sub(start), time.Duration(ms)*time.Millisecond; got != want {
		t.Fatalf("delayed frame landed at +%v of simulated time, want exactly its +%v delay", got, want)
	}
}

func TestPartitionBlocksDialsUntilHeal(t *testing.T) {
	const heal = 250 * time.Millisecond
	plan := &faultnet.Plan{
		Name: "split", Seed: 5,
		Rules: []faultnet.Rule{{
			From: "edge/1", To: "cloud", Type: "GroupAggregate",
			Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionPartition, HealMs: int(heal / time.Millisecond), Count: 1,
		}},
	}
	nw := wrap(t, plan)
	ln, err := nw.ListenAs("cloud", "c")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	results := acceptAndDecode(t, ln, 1)

	conn, err := nw.DialFrom("edge/1", "c")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer conn.Close()

	clk := nw.Clock()
	start := clk.Now()
	sent := make(chan error, 1)
	go func() {
		_, err := wire.Encode(conn, testMsg(wire.GroupAggregate, 0, 0, 2))
		sent <- err
	}()

	// Simulated time moves only once the writer has triggered the partition
	// and is waiting out the heal, so every dial below sees it.
	clk.Sleep(heal - time.Nanosecond)
	if _, err := nw.DialFrom("edge/1", "c"); err == nil {
		t.Fatal("dial across active partition succeeded")
	} else if !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("partitioned dial failed with %v, want partition refusal", err)
	}

	clk.Sleep(time.Nanosecond)
	if _, err := nw.DialFrom("edge/1", "c"); err != nil {
		t.Fatalf("dial at exactly the heal time: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("partitioned write: %v", err)
	}
	if r := <-results; r.err != nil {
		t.Fatalf("decode after heal: %v", r.err)
	}
	if got := clk.Now().Sub(start); got != heal {
		t.Fatalf("partitioned frame landed at +%v of simulated time, want exactly the +%v heal", got, heal)
	}
}

// chaosTraffic drives one deterministic frame schedule through a wrapped
// memnet and returns the rendered fault log.
func chaosTraffic(t *testing.T, plan *faultnet.Plan) string {
	t.Helper()
	nw := wrap(t, plan)
	ln, err := nw.ListenAs("edge/0", "e0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}

	const frames = 20
	results := acceptAndDecode(t, ln, frames)
	conn, err := nw.DialFrom("client/1", "e0")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer conn.Close()
	for i := 0; i < frames; i++ {
		m := testMsg(wire.MaskedUpdate, uint32(i/4), uint32(i%4), 3)
		if _, err := wire.Encode(conn, m); err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
	}
	var decodeErrs int
	for r := range results {
		if r.err != nil {
			decodeErrs++
		}
	}
	if c := nw.Log().Counts(); c[faultnet.ActionCorrupt] != decodeErrs {
		t.Fatalf("injected %d corruptions but reader saw %d decode errors", c[faultnet.ActionCorrupt], decodeErrs)
	}
	return nw.Log().String()
}

func TestEventLogDeterministicAcrossRuns(t *testing.T) {
	mkPlan := func() *faultnet.Plan {
		return &faultnet.Plan{
			Name: "probabilistic", Seed: 42,
			Rules: []faultnet.Rule{
				{
					From: "client/*", To: "edge/*", Type: "MaskedUpdate",
					Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
					Action: faultnet.ActionCorrupt, Prob: 0.3, Flips: 2,
				},
				{
					From: "client/*", To: "edge/*",
					Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
					Action: faultnet.ActionDelay, Prob: 0.2, DelayMs: 1, JitterMs: 3,
				},
			},
		}
	}
	first := chaosTraffic(t, mkPlan())
	second := chaosTraffic(t, mkPlan())
	if first != second {
		t.Fatalf("same plan, same seed, different fault logs:\n--- run 1\n%s--- run 2\n%s", first, second)
	}
	if first == "" {
		t.Fatal("probabilistic plan injected nothing over 20 frames")
	}
}

func TestInjectedFaultsLandInRegistry(t *testing.T) {
	plan := &faultnet.Plan{
		Name: "metered", Seed: 2,
		Rules: []faultnet.Rule{{
			From: "a", To: "srv",
			Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
			Action: faultnet.ActionCorrupt, Count: 2,
		}},
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan: %v", err)
	}
	reg := metrics.New()
	nw := faultnet.Wrap(fednode.NewMemNetwork(), plan, reg)
	ln, err := nw.ListenAs("srv", "s")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	results := acceptAndDecode(t, ln, 2)
	conn, err := nw.DialFrom("a", "s")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	//lint:ignore dropped-error test cleanup; close failure is irrelevant here
	defer conn.Close()
	for i := 0; i < 2; i++ {
		if _, err := wire.Encode(conn, testMsg(wire.MaskedUpdate, 0, uint32(i), 2)); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	for r := range results {
		if !errors.Is(r.err, wire.ErrChecksum) {
			t.Fatalf("decode err = %v, want ErrChecksum", r.err)
		}
	}
	got := reg.CounterValue("fel_faultnet_injected_total", metrics.L("action", "corrupt"))
	if got != 2 {
		t.Fatalf("fel_faultnet_injected_total{action=corrupt} = %d, want 2", got)
	}
}

func TestMutatorsMatchInjector(t *testing.T) {
	m := testMsg(wire.MaskedUpdate, 3, 1, 6)
	var buf strings.Builder
	if _, err := wire.Encode(&buf, m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	frame := []byte(buf.String())

	rng := stats.NewRNG(11)
	corrupted := faultnet.CorruptBits(frame, 2, rng)
	if len(corrupted) != len(frame) {
		t.Fatalf("CorruptBits changed length %d → %d", len(frame), len(corrupted))
	}
	if string(corrupted[:wire.HeaderSize]) != string(frame[:wire.HeaderSize]) {
		t.Fatal("CorruptBits touched the header")
	}
	if _, err := wire.Decode(strings.NewReader(string(corrupted)), 0); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("corrupted frame decode err = %v, want ErrChecksum", err)
	}

	truncated := faultnet.TruncateFrame(frame, rng)
	if len(truncated) >= len(frame) || len(truncated) == 0 {
		t.Fatalf("TruncateFrame returned %d bytes of %d", len(truncated), len(frame))
	}
	if _, err := wire.Decode(strings.NewReader(string(truncated)), 0); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("truncated frame decode err = %v, want ErrTruncated", err)
	}
}

func TestPlanJSONDefaultsAndDelayOnly(t *testing.T) {
	const doc = `{
		"name": "slow-links",
		"seed": 99,
		"rules": [
			{"from": "*", "to": "cloud", "action": "delay", "delay_ms": 5},
			{"from": "edge/*", "to": "cloud", "action": "partition", "heal_ms": 40}
		]
	}`
	path := t.TempDir() + "/plan.json"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatalf("write plan: %v", err)
	}
	p, err := faultnet.LoadPlan(path)
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}
	if p.Name != "slow-links" || p.Seed != 99 || len(p.Rules) != 2 {
		t.Fatalf("plan mis-parsed: %+v", p)
	}
	r := p.Rules[0]
	if r.Round != faultnet.MatchAny || r.Seq != faultnet.MatchAny || r.Prob != 1 || r.Flips != 1 {
		t.Fatalf("rule defaults not applied: %+v", r)
	}
	if !p.DelayOnly() {
		t.Fatal("delay+partition plan reported as destructive")
	}

	p.Rules = append(p.Rules, faultnet.Rule{
		From: "*", To: "*", Round: faultnet.MatchAny, Seq: faultnet.MatchAny,
		Action: faultnet.ActionReset,
	})
	if p.DelayOnly() {
		t.Fatal("reset plan reported as delay-only")
	}
}

func TestPlanValidateRejectsBadRules(t *testing.T) {
	bad := []faultnet.Plan{
		{Name: "empty"},
		{Name: "no-delay", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionDelay}}},
		{Name: "no-heal", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionPartition}}},
		{Name: "bad-action", Rules: []faultnet.Rule{{From: "*", To: "*", Action: "explode"}}},
		{Name: "bad-type", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionReset, Type: "Nope"}}},
		{Name: "no-from", Rules: []faultnet.Rule{{To: "*", Action: faultnet.ActionReset}}},
		{Name: "bad-prob", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionReset, Prob: 1.5}}},
		{Name: "negative-prob", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionReset, Prob: -0.5}}},
		{Name: "nan-prob", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionReset, Prob: math.NaN()}}},
		{Name: "max-jitter", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionDelay, JitterMs: math.MaxInt}}},
		{Name: "negative-delay", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionDelay, DelayMs: -5, JitterMs: 3}}},
		{Name: "negative-jitter", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionDelay, DelayMs: 5, JitterMs: -3}}},
		{Name: "negative-bandwidth", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionDelay, DelayMs: 5, BytesPerMs: -1}}},
		{Name: "huge-bandwidth", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionDelay, BytesPerMs: 1<<30 + 1}}},
		{Name: "delay-past-duration", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionDelay, DelayMs: 1 << 44}}},
		{Name: "heal-past-duration", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionPartition, HealMs: 1 << 44}}},
		{Name: "negative-count", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionReset, Count: -1}}},
		{Name: "huge-flips", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionCorrupt, Flips: 1 << 40}}},
		{Name: "negative-flips", Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionCorrupt, Flips: -2}}},
		{Name: "negative-backoff", RestartBackoffMs: -1, Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionReset}}},
		{Name: "huge-backoff", RestartBackoffMs: math.MaxInt, Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionReset}}},
		{Name: "negative-restarts", MaxRestarts: -1, Rules: []faultnet.Rule{{From: "*", To: "*", Action: faultnet.ActionReset}}},
	}
	for _, p := range bad {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("plan %q validated but should not", p.Name)
		}
	}
}
