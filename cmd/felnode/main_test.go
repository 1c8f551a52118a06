package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/faultnet/scenarios"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestCheckRanges: main exits 2 with this message, before any System is
// built and before -serve starts, for a federation or a job no role can run;
// bad -clients or -edges used to panic in the partition or the edge
// assignment, and the other four exited 1 with a runtime message from fednode.
func TestCheckRanges(t *testing.T) {
	for _, c := range []struct {
		clients, edges, rounds, krounds, epochs, sample int
		want                                            string
	}{
		{24, 2, 3, 2, 1, 2, ""},
		{1, 1, 1, 1, 1, 1, ""},
		{1, 2, 3, 2, 1, 2, ""},
		{0, 2, 3, 2, 1, 2, "-clients must be positive, got 0"},
		{-3, 2, 3, 2, 1, 2, "-clients must be positive, got -3"},
		{24, 0, 3, 2, 1, 2, "-edges must be positive, got 0"},
		{24, -1, 3, 2, 1, 2, "-edges must be positive, got -1"},
		{0, 0, 3, 2, 1, 2, "-clients must be positive, got 0"},
		{24, 2, -1, 2, 1, 2, "-rounds must be positive, got -1"},
		{24, 2, 0, 2, 1, 2, "-rounds must be positive, got 0"},
		{24, 2, 3, 0, 1, 2, "-krounds must be positive, got 0"},
		{24, 2, 3, 2, -1, 2, "-epochs must be positive, got -1"},
		{24, 2, 3, 2, 1, 0, "-sample must be positive, got 0"},
		{24, 2, 3, 0, 0, 0, "-krounds must be positive, got 0"},
	} {
		got := ""
		if err := checkRanges(c.clients, c.edges, c.rounds, c.krounds, c.epochs, c.sample); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("checkRanges(%d, %d, %d, %d, %d, %d) = %q, want %q",
				c.clients, c.edges, c.rounds, c.krounds, c.epochs, c.sample, got, c.want)
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
