package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock yields a deterministic, strictly advancing time source.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(3 * time.Millisecond)
		return t
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("fel_test_events_total", L("kind", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("fel_test_events_total", L("kind", "a")); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	if got := r.CounterValue("fel_test_events_total", L("kind", "b")); got != 0 {
		t.Fatalf("absent CounterValue = %d, want 0", got)
	}

	g := r.Gauge("fel_test_level")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got < 1.99 || got > 2.01 {
		t.Fatalf("gauge = %v, want 2", got)
	}

	h := r.Histogram("fel_test_latency_seconds")
	h.Observe(0.0012) // lands in the le=0.0025 bucket
	h.Observe(42)     // lands in le=50
	h.Observe(9999)   // overflow bucket
	counts, sum, n := h.read()
	if n != 3 {
		t.Fatalf("histogram count = %d, want 3", n)
	}
	if sum < 10041 || sum > 10042 {
		t.Fatalf("histogram sum = %v", sum)
	}
	if counts[len(counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", counts[len(counts)-1])
	}
}

func TestLabelOrderCanonicalized(t *testing.T) {
	r := New()
	r.Counter("fel_test_x_total", L("a", "1"), L("b", "2")).Inc()
	r.Counter("fel_test_x_total", L("b", "2"), L("a", "1")).Inc()
	if got := r.CounterValue("fel_test_x_total", L("b", "2"), L("a", "1")); got != 2 {
		t.Fatalf("label order created a second series: got %d, want 2", got)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, name := range []string{"events_total", "fel_Upper", "fel_bad-char", "fel_trailing_", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: no panic", name)
				}
			}()
			r.Counter(name)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("span without _seconds suffix: no panic")
			}
		}()
		r.Start("fel_test_phase")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind clash: no panic")
			}
		}()
		r.Counter("fel_test_clash")
		r.Gauge("fel_test_clash")
	}()
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("fel_test_total").Inc()
	r.Gauge("fel_test_g").Set(1)
	r.Histogram("fel_test_h_seconds").Observe(1)
	span := r.Start("fel_test_h_seconds")
	span.End()
	if got := r.Snapshot(); got != "" {
		t.Fatalf("nil snapshot = %q", got)
	}
	if got := r.CounterValue("fel_test_total"); got != 0 {
		t.Fatalf("nil CounterValue = %d", got)
	}
	data, err := r.JSON()
	if err != nil || string(data) != "{}" {
		t.Fatalf("nil JSON = %q, %v", data, err)
	}
	if tbl := r.Table("id", "t"); len(tbl.Rows) != 0 {
		t.Fatalf("nil Table has %d rows", len(tbl.Rows))
	}
}

// TestSnapshotDeterministic registers the same instruments in two
// different orders and demands byte-identical snapshots.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(reversed bool) *Registry {
		r := NewWithClock(fakeClock())
		ops := []func(){
			func() { r.Counter("fel_test_b_total", L("g", "1")).Add(3) },
			func() { r.Counter("fel_test_b_total", L("g", "0")).Add(2) },
			func() { r.Counter("fel_test_a_total").Inc() },
			func() { r.Gauge("fel_test_level", L("edge", "0")).Set(0.25) },
			func() {
				s := r.Start("fel_test_phase_seconds")
				s.End()
			},
		}
		if reversed {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return r
	}
	a, b := build(false).Snapshot(), build(true).Snapshot()
	if a != b {
		t.Fatalf("snapshots differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"# TYPE fel_test_a_total counter",
		`fel_test_b_total{g="0"} 2`,
		`fel_test_level{edge="0"} 0.25`,
		"fel_test_phase_seconds_count 1",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("snapshot missing %q:\n%s", want, a)
		}
	}
}

// TestMaskTimings runs real-clock spans twice; the raw snapshots may
// differ, the masked ones must not — and must keep the span counts.
func TestMaskTimings(t *testing.T) {
	run := func() string {
		r := New()
		for i := 0; i < 3; i++ {
			s := r.Start("fel_test_phase_seconds", L("role", "edge"))
			s.End()
		}
		r.Counter("fel_test_rounds_total").Inc()
		return r.Snapshot()
	}
	a, b := MaskTimings(run()), MaskTimings(run())
	if a != b {
		t.Fatalf("masked snapshots differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, `fel_test_phase_seconds_count{role="edge"} 3`) {
		t.Fatalf("masked snapshot lost the span count:\n%s", a)
	}
	if strings.Contains(a, "_seconds_bucket") || strings.Contains(a, "_seconds_sum") {
		t.Fatalf("masked snapshot still has timing lines:\n%s", a)
	}
	if !strings.Contains(a, "fel_test_rounds_total 1") {
		t.Fatalf("masked snapshot lost a counter:\n%s", a)
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines — the
// race detector run in ci.sh covers counter, gauge, histogram, span, and
// snapshot concurrency here.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("fel_test_hits_total", L("worker", "shared")).Inc()
				r.Gauge("fel_test_level").Add(1)
				s := r.Start("fel_test_span_seconds")
				s.End()
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterValue("fel_test_hits_total", L("worker", "shared")); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.GaugeValue("fel_test_level"); got < workers*perWorker-0.5 || got > workers*perWorker+0.5 {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if !strings.Contains(r.Snapshot(), "fel_test_span_seconds_count 4000") {
		t.Fatalf("span count missing from snapshot")
	}
}

// TestHistogramStart: a span opened on a looked-up handle lands in the
// series Registry.Start records into, timed on the registry's clock; the nil
// registry's handle opens spans that read no clock; a histogram whose name
// does not end in _seconds refuses to time one.
func TestHistogramStart(t *testing.T) {
	reads := 0
	clk := fakeClock()
	r := NewWithClock(func() time.Time { reads++; return clk() })
	h := r.Histogram("fel_test_phase_seconds", L("role", "edge"))
	for range 3 {
		h.Start().End()
	}
	r.Start("fel_test_phase_seconds", L("role", "edge")).End()
	if _, sum, n := h.read(); n != 4 || math.Abs(sum-0.012) > 1e-12 {
		t.Fatalf("handle spans and Registry.Start recorded n=%d sum=%v, want 4 spans of 3ms", n, sum)
	}
	if reads != 8 {
		t.Fatalf("four spans read the clock %d times, want 8", reads)
	}

	var nilReg *Registry
	nilReg.Histogram("fel_test_phase_seconds").Start().End()
	if reads != 8 {
		t.Fatal("a span on the nil registry read a clock")
	}

	defer func() {
		if recover() == nil {
			t.Error("span on a histogram not named _seconds: no panic")
		}
	}()
	r.Histogram("fel_test_staleness").Start()
}

func TestJSONAndTable(t *testing.T) {
	r := NewWithClock(fakeClock())
	r.Counter("fel_test_frames_total", L("type", "GlobalModel")).Add(7)
	r.Gauge("fel_test_prob", L("group", "0")).Set(0.5)
	r.Gauge("fel_test_cov", L("group", "1")).Set(math.Inf(1))
	s := r.Start("fel_test_phase_seconds")
	s.End()

	data, err := r.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]any   `json:"gauges"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Counters[`fel_test_frames_total{type="GlobalModel"}`] != 7 {
		t.Fatalf("JSON counters = %v", doc.Counters)
	}
	if doc.Histograms["fel_test_phase_seconds"].Count != 1 {
		t.Fatalf("JSON histograms = %v", doc.Histograms)
	}
	if doc.Gauges[`fel_test_prob{group="0"}`] != 0.5 || doc.Gauges[`fel_test_cov{group="1"}`] != "+Inf" {
		t.Fatalf("JSON gauges = %v, want 0.5 and the string +Inf", doc.Gauges)
	}

	tbl := r.Table("metrics", "test")
	md := tbl.Markdown()
	for _, want := range []string{"fel_test_frames_total", "fel_test_phase_seconds_count", "0.5"} {
		if !strings.Contains(md, want) {
			t.Errorf("table missing %q:\n%s", want, md)
		}
	}
}

func TestHandlerServes(t *testing.T) {
	r := New()
	r.Counter("fel_test_served_total").Inc()
	PublishExpvar("fel_test_handler", r)
	PublishExpvar("fel_test_handler", r) // duplicate publish must not panic
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() {
			if err := resp.Body.Close(); err != nil {
				t.Errorf("close body: %v", err)
			}
		}()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "fel_test_served_total 1") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "fel_test_handler") {
		t.Fatalf("/debug/vars = %d:\n%s", code, body)
	}
	code, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, body = get("/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("/ = %d:\n%s", code, body)
	}
	code, _ = get("/no-such-page")
	if code != http.StatusNotFound {
		t.Fatalf("/no-such-page = %d, want 404", code)
	}
}
