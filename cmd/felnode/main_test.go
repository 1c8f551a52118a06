package main

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet/scenarios"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestCheckRanges: main exits 2 with this message, before any System is
// built, before -serve starts and before any listener opens, for a
// federation or a job no role can run; bad -clients or -edges used to panic
// in the partition or the edge assignment, the other four, a bad -lr and
// -serve -jobs 0 exited 1 with a runtime message, a negative -batch trained
// full-batch, -role edge with an -edge out of range printed "listening"
// first, an unknown -role opened the -metrics listener before it exited 1,
// and a negative -hold, or a positive one without -metrics, did nothing and
// exited 0. -batch 0 is full batch and stays allowed.
func TestCheckRanges(t *testing.T) {
	ok := flags{clients: 24, edges: 2, rounds: 3, krounds: 2, epochs: 1, sample: 2, batch: 16, lr: 0.05, jobs: 2, role: "loopback"}
	with := func(edit func(*flags)) flags {
		f := ok
		edit(&f)
		return f
	}
	for _, c := range []struct {
		f    flags
		want string
	}{
		{ok, ""},
		{flags{clients: 1, edges: 1, rounds: 1, krounds: 1, epochs: 1, sample: 1, lr: 1, role: "loopback"}, ""},
		{with(func(f *flags) { f.clients = 1 }), ""},
		{with(func(f *flags) { f.clients = 0 }), "-clients must be positive, got 0"},
		{with(func(f *flags) { f.clients = -3 }), "-clients must be positive, got -3"},
		{with(func(f *flags) { f.edges = 0 }), "-edges must be positive, got 0"},
		{with(func(f *flags) { f.edges = -1 }), "-edges must be positive, got -1"},
		{with(func(f *flags) { f.clients, f.edges = 0, 0 }), "-clients must be positive, got 0"},
		{with(func(f *flags) { f.rounds = -1 }), "-rounds must be positive, got -1"},
		{with(func(f *flags) { f.rounds = 0 }), "-rounds must be positive, got 0"},
		{with(func(f *flags) { f.krounds = 0 }), "-krounds must be positive, got 0"},
		{with(func(f *flags) { f.epochs = -1 }), "-epochs must be positive, got -1"},
		{with(func(f *flags) { f.sample = 0 }), "-sample must be positive, got 0"},
		{with(func(f *flags) { f.krounds, f.epochs, f.sample = 0, 0, 0 }), "-krounds must be positive, got 0"},
		{with(func(f *flags) { f.batch = 0 }), ""},
		{with(func(f *flags) { f.batch = -5 }), "-batch must be positive, or 0 for the whole dataset, got -5"},
		{with(func(f *flags) { f.lr = 0 }), "-lr must be positive and finite, got 0"},
		{with(func(f *flags) { f.lr = math.NaN() }), "-lr must be positive and finite, got NaN"},
		{with(func(f *flags) { f.lr = -1 }), "-lr must be positive and finite, got -1"},
		{with(func(f *flags) { f.lr = math.Inf(1) }), "-lr must be positive and finite, got +Inf"},
		{with(func(f *flags) { f.jobs = 0 }), ""}, // -jobs is read by -serve only
		{with(func(f *flags) { f.serve, f.jobs = true, 0 }), "-jobs must be positive, got 0"},
		{with(func(f *flags) { f.serve, f.jobs = true, -2 }), "-jobs must be positive, got -2"},
		{with(func(f *flags) { f.role, f.edge = "edge", 1 }), ""},
		{with(func(f *flags) { f.role, f.edge = "edge", 5 }), "-edge must be in [0, 2) for -edges 2, got 5"},
		{with(func(f *flags) { f.role, f.edge = "edge", 2 }), "-edge must be in [0, 2) for -edges 2, got 2"},
		{with(func(f *flags) { f.role, f.edge = "edge", -1 }), "-edge must be in [0, 2) for -edges 2, got -1"},
		{with(func(f *flags) { f.edge = 5 }), ""}, // -edge is read by -role edge only
		{with(func(f *flags) { f.role = "cloud" }), ""},
		{with(func(f *flags) { f.role = "bogus" }), `-role must be cloud, edge, or loopback, got "bogus"`},
		{with(func(f *flags) { f.role = "" }), `-role must be cloud, edge, or loopback, got ""`},
		{with(func(f *flags) { f.serve, f.role = true, "bogus" }), ""}, // -role is not read with -serve
		{with(func(f *flags) { f.hold, f.metrics = 30*time.Second, true }), ""},
		{with(func(f *flags) { f.serve, f.hold, f.metrics = true, 30*time.Second, true }), ""},
		{with(func(f *flags) { f.hold = -time.Second }), "-hold must not be negative, got -1s"},
		{with(func(f *flags) { f.hold, f.metrics = -time.Second, true }), "-hold must not be negative, got -1s"},
		{with(func(f *flags) { f.serve, f.hold = true, -time.Second }), "-hold must not be negative, got -1s"},
		{with(func(f *flags) { f.hold = time.Second }), "-hold 1s needs a -metrics address: it keeps that endpoint up"},
		{with(func(f *flags) { f.serve, f.hold = true, 5*time.Second }), "-hold 5s needs a -metrics address: it keeps that endpoint up"},
	} {
		got := ""
		if err := checkRanges(c.f); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("checkRanges(%+v) = %q, want %q", c.f, got, c.want)
		}
	}
}

// TestMetricsEndpoint serves a registry on an ephemeral port, reads /metrics
// over a connection the client does not keep alive, and closes the endpoint.
// The snapshot must carry the registry's counter, and TestMain's leak check
// holds close to joining the Serve goroutine and every connection's.
func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.New()
	reg.Counter("fel_fednode_dropouts_total").Add(3)
	s, err := startMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + s.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "fel_fednode_dropouts_total 3\n") {
		t.Fatalf("GET /metrics: %s\n%s", resp.Status, body)
	}
}

// TestChaosReportReplays: a chaos run's report is the same bytes however
// often it is rendered, so nothing in it follows map iteration order. The
// mixed scenario injects four kinds of fault, and an unsorted count table
// would come out in a different order on some renders.
func TestChaosReportReplays(t *testing.T) {
	sc, ok := scenarios.ByName("mixed")
	if !ok {
		t.Fatal("no scenario named mixed")
	}
	r, err := scenarios.Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := chaosReport(r)
	if n := strings.Count(first, "  injected "); n < 2 {
		t.Fatalf("the report counts %d fault kinds; the check needs two or more:\n%s", n, first)
	}
	for i := 1; i < 32; i++ {
		if again := chaosReport(r); again != first {
			t.Fatalf("render %d differs from the first:\n%s\n--- first ---\n%s", i, again, first)
		}
	}
}
