package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/metrics"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

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
