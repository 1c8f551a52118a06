package async_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/stats"
	"repro/internal/wire"
)

func TestStalenessWeight(t *testing.T) {
	cases := []struct {
		tau   int
		alpha float64
		want  float64
	}{
		{0, 0, 1}, {0, 2, 1}, {5, 0, 1}, {-3, 1.5, 1},
		{1, 1, 0.5}, {3, 1, 0.25}, {1, 2, 0.25},
	}
	for _, c := range cases {
		if got := async.StalenessWeight(c.tau, c.alpha); got != c.want {
			t.Errorf("StalenessWeight(%d, %v) = %v, want %v", c.tau, c.alpha, got, c.want)
		}
	}
	// Monotone decreasing in τ for α > 0.
	prev := 1.0
	for tau := 1; tau < 10; tau++ {
		w := async.StalenessWeight(tau, 0.5)
		if w >= prev || w <= 0 {
			t.Fatalf("w(%d)=%v not strictly decreasing below %v", tau, w, prev)
		}
		prev = w
	}
}

func TestFlushThreshold(t *testing.T) {
	cases := []struct {
		frac string
		cfg  async.Config
		n    int
		want int
	}{
		{"zero-means-full", async.Config{}, 8, 8},
		{"full", async.Config{BufferFrac: 1}, 8, 8},
		{"half", async.Config{BufferFrac: 0.5}, 8, 4},
		{"ceil", async.Config{BufferFrac: 0.5}, 7, 4},
		{"floor-one", async.Config{BufferFrac: 0.01}, 8, 1},
		{"singleton", async.Config{BufferFrac: 0.25}, 1, 1},
	}
	for _, c := range cases {
		if got := c.cfg.FlushThreshold(c.n); got != c.want {
			t.Errorf("%s: FlushThreshold(%d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}

func TestDelayModelDrawDeterministicAndBounded(t *testing.T) {
	d := async.StragglerStorm()
	seed := async.DispatchSeed(42, 3, 1, 9, 0)
	a := d.Draw(stats.NewRNG(seed))
	b := d.Draw(stats.NewRNG(seed))
	if a != b {
		t.Fatalf("same seed drew %d then %d", a, b)
	}
	rng := stats.NewRNG(1)
	sawStraggler := false
	for i := 0; i < 2000; i++ {
		rng.Reseed(async.DispatchSeed(42, 0, 0, i, 0))
		got := d.Draw(rng)
		fastMax := d.BaseTicks + d.JitterTicks
		slowMax := fastMax * d.StragglerFactor
		if got < d.BaseTicks || got > slowMax {
			t.Fatalf("draw %d outside [%d,%d]", got, d.BaseTicks, slowMax)
		}
		if got > fastMax {
			sawStraggler = true
		}
	}
	if !sawStraggler {
		t.Fatal("2000 straggler-storm draws produced no straggler")
	}
	var zero async.DelayModel
	if zero.Draw(stats.NewRNG(1)) != 0 {
		t.Fatal("zero model drew a nonzero delay")
	}
}

func TestDispatchSeedSensitivity(t *testing.T) {
	base := async.DispatchSeed(42, 1, 2, 3, 4)
	perturbed := []uint64{
		async.DispatchSeed(43, 1, 2, 3, 4),
		async.DispatchSeed(42, 2, 2, 3, 4),
		async.DispatchSeed(42, 1, 3, 3, 4),
		async.DispatchSeed(42, 1, 2, 4, 4),
		async.DispatchSeed(42, 1, 2, 3, 5),
	}
	for i, p := range perturbed {
		if p == base {
			t.Errorf("coordinate %d change did not change the seed", i)
		}
	}
}

func testEvents() []async.Event {
	return []async.Event{
		{Round: 0, Group: 1, Client: 3, Kind: async.Arrive, Tick: 12, Stale: 0},
		{Round: 0, Group: 1, Client: 5, Kind: async.Drop, Tick: 14},
		{Round: 0, Group: 1, Client: -1, Kind: async.Flush, Tick: 14, Stale: 1},
		{Round: 1, Group: 2, Client: 7, Kind: async.Carry, Tick: 30, Stale: 1},
		{Round: 1, Group: 2, Client: 7, Kind: async.Late, Tick: 44},
	}
}

func TestLogBytesAndCounts(t *testing.T) {
	var a, b async.Log
	a.Append(testEvents()...)
	b.Append(testEvents()...)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical logs render different bytes")
	}
	b.Append(async.Event{Kind: async.Flush})
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("diverged logs render equal bytes")
	}
	counts := a.Counts()
	for _, k := range []async.Kind{async.Arrive, async.Drop, async.Flush, async.Carry, async.Late} {
		if counts[k] != 1 {
			t.Fatalf("count[%v] = %d, want 1", k, counts[k])
		}
	}
	c := a.Clone()
	c.Append(async.Event{})
	if a.Len() != 5 || c.Len() != 6 {
		t.Fatalf("clone not independent: %d / %d", a.Len(), c.Len())
	}
	if !strings.Contains(a.String(), "r0 g1 c3 arrive t12 s0") {
		t.Fatalf("String rendering unexpected:\n%s", a.String())
	}
}

func TestEventsWireRoundTrip(t *testing.T) {
	events := testEvents()
	msgs := async.EventsToMessages(events, 9)
	if len(msgs) != 1 {
		t.Fatalf("got %d frames, want 1", len(msgs))
	}
	if msgs[0].Type != wire.ArrivalLog || msgs[0].Round != 9 || msgs[0].Seq != 0 {
		t.Fatalf("bad envelope: %+v", msgs[0])
	}
	got, err := async.EventsFromMessage(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d changed: %+v vs %+v", i, events[i], got[i])
		}
	}
}

func TestEventsWireChunking(t *testing.T) {
	big := make([]async.Event, 4096+37)
	for i := range big {
		big[i] = async.Event{Round: i / 1000, Group: 1, Client: i % 50, Kind: async.Arrive, Tick: int64(i)}
	}
	msgs := async.EventsToMessages(big, 2)
	if len(msgs) != 2 {
		t.Fatalf("got %d frames, want 2", len(msgs))
	}
	if msgs[0].Seq != 0 || msgs[1].Seq != 1 {
		t.Fatalf("chunk seqs %d,%d", msgs[0].Seq, msgs[1].Seq)
	}
	var back []async.Event
	for _, m := range msgs {
		ev, err := async.EventsFromMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, ev...)
	}
	if len(back) != len(big) {
		t.Fatalf("decoded %d events, want %d", len(back), len(big))
	}
	for i := range big {
		if back[i] != big[i] {
			t.Fatalf("event %d changed", i)
		}
	}
	// Empty logs still produce one frame, distinguishable from absence.
	empty := async.EventsToMessages(nil, 0)
	if len(empty) != 1 || len(empty[0].Ints) != 0 {
		t.Fatalf("empty log encoded as %+v", empty)
	}
	if ev, err := async.EventsFromMessage(empty[0]); err != nil || len(ev) != 0 {
		t.Fatalf("empty frame decoded to %v, %v", ev, err)
	}
}

func TestEventsFromMessageStrict(t *testing.T) {
	good := async.EventsToMessages(testEvents(), 0)[0]
	bad := []struct {
		name string
		m    *wire.Message
	}{
		{"wrong-type", &wire.Message{Type: wire.GlobalModel}},
		{"floats", &wire.Message{Type: wire.ArrivalLog, Floats: []float64{1}}},
		{"shape", &wire.Message{Type: wire.ArrivalLog, Ints: good.Ints[:len(good.Ints)-1], Words: good.Words}},
		{"kind", &wire.Message{Type: wire.ArrivalLog, Ints: []int32{0, 0, 0, 99, 0}, Words: []uint64{1}}},
		{"negative-tick", &wire.Message{Type: wire.ArrivalLog, Ints: []int32{0, 0, 0, 0, 0}, Words: []uint64{math.MaxUint64}}},
	}
	for _, c := range bad {
		if _, err := async.EventsFromMessage(c.m); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

func TestModeAndKindStrings(t *testing.T) {
	if async.Buffered.String() != "async" || async.SemiSync.String() != "semisync" || async.Sync.String() != "sync" {
		t.Fatal("mode names drifted from experiment output vocabulary")
	}
	if async.Mode(9).String() != "Mode(9)" || async.Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown enum rendering drifted")
	}
}
