// Package groupio provides the JSON interface of the covgroup tool: it
// parses client label histograms (the only information CoV grouping needs —
// no features, models, or gradients), runs a formation algorithm and a
// sampling-probability computation, and serializes the resulting groups.
// This is the deployable face of the paper's edge-side component.
package groupio

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// InputClient is one client's label histogram.
type InputClient struct {
	// ID is the caller's client identifier.
	ID int `json:"id"`
	// Counts[j] is the number of samples with label j.
	Counts []float64 `json:"counts"`
	// Edge optionally assigns the client to an edge server (default 0).
	Edge int `json:"edge,omitempty"`
}

// Input is the covgroup request document.
type Input struct {
	// Classes is the number of labels; inferred from the first client's
	// histogram when zero.
	Classes int `json:"classes,omitempty"`
	// Clients lists the population.
	Clients []InputClient `json:"clients"`
}

// OutputGroup is one formed group.
type OutputGroup struct {
	ID          int       `json:"id"`
	Edge        int       `json:"edge"`
	ClientIDs   []int     `json:"client_ids"`
	Counts      []float64 `json:"counts"`
	CoV         float64   `json:"cov"`
	Gamma       float64   `json:"gamma"`
	Samples     int       `json:"samples"`
	Probability float64   `json:"probability"`
}

// Output is the covgroup response document.
type Output struct {
	Algorithm string        `json:"algorithm"`
	Sampling  string        `json:"sampling"`
	Groups    []OutputGroup `json:"groups"`
}

// Parse reads and validates an Input document.
func Parse(r io.Reader) (*Input, error) {
	var in Input
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("groupio: parse: %w", err)
	}
	if len(in.Clients) == 0 {
		return nil, fmt.Errorf("groupio: no clients")
	}
	if in.Classes == 0 {
		in.Classes = len(in.Clients[0].Counts)
	}
	if in.Classes == 0 {
		return nil, fmt.Errorf("groupio: cannot infer class count")
	}
	seen := map[int]bool{}
	for i, c := range in.Clients {
		if len(c.Counts) != in.Classes {
			return nil, fmt.Errorf("groupio: client %d has %d counts, want %d", c.ID, len(c.Counts), in.Classes)
		}
		for _, v := range c.Counts {
			if v < 0 {
				return nil, fmt.Errorf("groupio: client %d has a negative count", c.ID)
			}
		}
		if seen[c.ID] {
			return nil, fmt.Errorf("groupio: duplicate client id %d", c.ID)
		}
		seen[c.ID] = true
		if c.Edge < 0 {
			return nil, fmt.Errorf("groupio: client %d has negative edge", c.ID)
		}
		_ = i
	}
	return &in, nil
}

// AlgorithmByName resolves a formation algorithm name (covg, rg, cdg, kldg,
// varg — case-insensitive) and returns its configuration error, if any.
func AlgorithmByName(name string, cfg grouping.Config, targetGS int) (grouping.Algorithm, error) {
	var a grouping.Algorithm
	switch strings.ToLower(name) {
	case "covg", "cov":
		a = grouping.CoVGrouping{Config: cfg}
	case "rg", "random":
		a = grouping.RandomGrouping{Config: cfg, TargetGS: targetGS}
	case "cdg":
		a = grouping.CDGrouping{Config: cfg, TargetGS: targetGS}
	case "kldg", "kld":
		a = grouping.KLDGrouping{Config: cfg, TargetGS: targetGS}
	case "varg", "variance":
		a = grouping.VarianceGrouping{Config: cfg}
	default:
		return nil, fmt.Errorf("groupio: unknown algorithm %q", name)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("groupio: %s: %w", a.Name(), err)
	}
	return a, nil
}

// SamplingByName resolves a sampling method name.
func SamplingByName(name string) (sampling.Method, error) {
	switch strings.ToLower(name) {
	case "random", "rs":
		return sampling.Random, nil
	case "rcov":
		return sampling.RCoV, nil
	case "srcov":
		return sampling.SRCoV, nil
	case "esrcov", "covs":
		return sampling.ESRCoV, nil
	}
	return 0, fmt.Errorf("groupio: unknown sampling method %q", name)
}

// Run forms groups per edge and computes sampling probabilities.
func Run(in *Input, alg grouping.Algorithm, method sampling.Method, seed uint64) (*Output, error) {
	// Build flyweight data.Client views: N carries the histogram total, no
	// indices or samples exist behind them.
	maxEdge := 0
	for _, c := range in.Clients {
		if c.Edge > maxEdge {
			maxEdge = c.Edge
		}
	}
	edges := make([][]*data.Client, maxEdge+1)
	for _, c := range in.Clients {
		total := 0.0
		for _, v := range c.Counts {
			total += v
		}
		dc := &data.Client{
			ID:     c.ID,
			N:      int(total),
			Counts: append([]float64(nil), c.Counts...),
		}
		edges[c.Edge] = append(edges[c.Edge], dc)
	}
	groups := grouping.FormAll(alg, edges, in.Classes, stats.NewRNG(seed))
	probs := sampling.Probabilities(groups, method)

	out := &Output{Algorithm: alg.Name(), Sampling: method.String()}
	for i, g := range groups {
		og := OutputGroup{
			ID: g.ID, Edge: g.Edge,
			Counts:      append([]float64(nil), g.Counts...),
			CoV:         g.CoV(),
			Gamma:       g.Gamma(),
			Samples:     g.NumSamples(),
			Probability: probs[i],
		}
		for _, c := range g.Clients {
			og.ClientIDs = append(og.ClientIDs, c.ID)
		}
		out.Groups = append(out.Groups, og)
	}
	return out, nil
}

// Write serializes the output as indented JSON.
func (o *Output) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(o); err != nil {
		return fmt.Errorf("groupio: write: %w", err)
	}
	return nil
}
