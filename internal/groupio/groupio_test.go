package groupio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/grouping"
	"repro/internal/sampling"
)

func sampleInput(n, classes int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"classes": %d, "clients": [`, classes)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		counts := make([]int, classes)
		counts[i%classes] = 10
		counts[(i+1)%classes] = 5
		//lint:ignore dropped-error json.Marshal of an int slice cannot fail
		data, _ := json.Marshal(counts)
		fmt.Fprintf(&b, `{"id": %d, "counts": %s, "edge": %d}`, i, data, i%2)
	}
	b.WriteString("]}")
	return b.String()
}

func TestParseValid(t *testing.T) {
	in, err := Parse(strings.NewReader(sampleInput(6, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if in.Classes != 3 || len(in.Clients) != 6 {
		t.Fatalf("parsed %+v", in)
	}
}

func TestParseInfersClasses(t *testing.T) {
	doc := `{"clients": [{"id": 1, "counts": [1, 2, 3, 4]}]}`
	in, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if in.Classes != 4 {
		t.Fatalf("inferred %d classes", in.Classes)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty clients":   `{"classes": 2, "clients": []}`,
		"no counts":       `{"clients": [{"id": 1, "counts": []}]}`,
		"count mismatch":  `{"classes": 3, "clients": [{"id": 1, "counts": [1, 2]}]}`,
		"negative count":  `{"classes": 2, "clients": [{"id": 1, "counts": [1, -2]}]}`,
		"duplicate id":    `{"classes": 2, "clients": [{"id": 1, "counts": [1, 2]}, {"id": 1, "counts": [3, 4]}]}`,
		"negative edge":   `{"classes": 2, "clients": [{"id": 1, "counts": [1, 2], "edge": -1}]}`,
		"unknown field":   `{"classes": 2, "clientz": []}`,
		"not json at all": `hello`,
	}
	for name, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestAlgorithmByName(t *testing.T) {
	cfg := grouping.Config{MinGS: 3}
	for name, want := range map[string]string{
		"covg": "CoVG", "COV": "CoVG",
		"rg": "RG", "random": "RG",
		"cdg": "CDG", "kldg": "KLDG", "kld": "KLDG",
		"varg": "VarG", "variance": "VarG",
	} {
		a, err := AlgorithmByName(name, cfg, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != want {
			t.Errorf("%s resolved to %s, want %s", name, a.Name(), want)
		}
	}
	if _, err := AlgorithmByName("bogus", cfg, 3); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

// TestAlgorithmByNameRejectsNoGroupSize: a configuration Form would panic on
// is an error here, so covgroup -mings 0 exits with a message, not a trace.
func TestAlgorithmByNameRejectsNoGroupSize(t *testing.T) {
	for _, c := range []struct {
		name     string
		minGS    int
		targetGS int
		want     string
	}{
		{"covg", 0, 3, "groupio: CoVG: MinGS must be positive"},
		{"varg", -1, 0, "groupio: VarG: MinGS must be positive"},
		{"rg", 0, 0, "groupio: RG: RandomGrouping needs TargetGS or MinGS"},
		{"cdg", 0, 0, "groupio: CDG: CDGrouping needs TargetGS or MinGS"},
		{"kldg", 0, -2, "groupio: KLDG: KLDGrouping needs TargetGS or MinGS"},
	} {
		a, err := AlgorithmByName(c.name, grouping.Config{MinGS: c.minGS}, c.targetGS)
		if err == nil || err.Error() != c.want || a != nil {
			t.Errorf("AlgorithmByName(%s, MinGS %d, TargetGS %d) = %v, %v; want nil, %q", c.name, c.minGS, c.targetGS, a, err, c.want)
		}
	}
	// The baselines fall back on TargetGS, so MinGS 0 alone is no error.
	if _, err := AlgorithmByName("rg", grouping.Config{}, 3); err != nil {
		t.Errorf("rg with TargetGS 3: %v", err)
	}
}

func TestSamplingByName(t *testing.T) {
	for name, want := range map[string]sampling.Method{
		"random": sampling.Random, "rs": sampling.Random,
		"rcov": sampling.RCoV, "srcov": sampling.SRCoV,
		"esrcov": sampling.ESRCoV, "covs": sampling.ESRCoV,
	} {
		m, err := SamplingByName(name)
		if err != nil || m != want {
			t.Errorf("%s: got %v, %v", name, m, err)
		}
	}
	if _, err := SamplingByName("bogus"); err == nil {
		t.Error("expected error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	in, err := Parse(strings.NewReader(sampleInput(12, 3)))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := AlgorithmByName("covg", grouping.Config{MinGS: 3, MaxCoV: 0.5, MergeLeftover: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(in, alg, sampling.ESRCoV, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "CoVG" || out.Sampling != "ESRCoV" {
		t.Fatalf("metadata %+v", out)
	}
	// Every client appears exactly once; probabilities sum to 1; groups
	// never span edges.
	seen := map[int]bool{}
	psum := 0.0
	for _, g := range out.Groups {
		psum += g.Probability
		for _, id := range g.ClientIDs {
			if seen[id] {
				t.Fatalf("client %d in two groups", id)
			}
			seen[id] = true
			if id%2 != g.Edge {
				t.Fatalf("client %d (edge %d) grouped under edge %d", id, id%2, g.Edge)
			}
		}
		if g.Samples != 15*len(g.ClientIDs) {
			t.Fatalf("group %d samples %d for %d clients", g.ID, g.Samples, len(g.ClientIDs))
		}
		if g.CoV < 0 || g.Gamma < 1 {
			t.Fatalf("group %d stats CoV=%v gamma=%v", g.ID, g.CoV, g.Gamma)
		}
	}
	if len(seen) != 12 {
		t.Fatalf("covered %d of 12 clients", len(seen))
	}
	if math.Abs(psum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", psum)
	}
}

func TestOutputWriteRoundTrip(t *testing.T) {
	in, err := Parse(strings.NewReader(sampleInput(6, 3)))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := AlgorithmByName("rg", grouping.Config{MinGS: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(in, alg, sampling.Random, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Output
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Algorithm != "RG" || len(decoded.Groups) != len(out.Groups) {
		t.Fatalf("round trip lost data: %+v", decoded)
	}
}
