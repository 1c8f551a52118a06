package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the root BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the tables in
// workload.go and metrics.go in step, and inside the contract's limits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(universal) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the harness %d", len(b.EndToEnd), len(universal))
	}
	seen := map[string]bool{}
	for i, d := range universal {
		if b.EndToEnd[i] != d {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the harness %+v", i, b.EndToEnd[i], d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
	layers := layerDecls()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the harness %d", len(b.PerLayer), len(layers))
	}
	for i, d := range layers {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range append(append([]decl(nil), universal...), layers...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

// TestSmoke runs every workload at -scale smoke, traced, and checks that
// the correctness checks pass and that both contract lines carry exactly
// the declared metrics, each once, each with its declared unit.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			r, err := runOne(def, 2024, sizing{smoke: true, seconds: 10}, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
			}
			for _, mode := range []struct {
				trace bool
				want  []decl
			}{{false, universal}, {true, layerDecls()}} {
				line := contractLine(r, mode.trace)
				if !line.Correct || line.Attempted != r.Attempted || line.Failed != 0 {
					t.Errorf("trace=%v: contract line %+v disagrees with the result", mode.trace, line)
				}
				if len(line.Metrics) != len(mode.want) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", mode.trace, len(line.Metrics), len(mode.want))
				}
				for _, d := range mode.want {
					m, ok := line.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s is declared but not emitted", mode.trace, d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: emitted with unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: value %v", d.Name, m.Value)
					case !mode.trace && m.Value <= 0:
						t.Errorf("%s: end-to-end value %v must be positive", d.Name, m.Value)
					}
				}
			}
			if _, err := os.Stat(dir + "/trace-" + def.name + ".json"); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4), the
// rule the driver judges spreads by.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	q1, med, q3 := quartiles(xs)
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}
