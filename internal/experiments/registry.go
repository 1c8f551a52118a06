package experiments

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Artifact is either a figure or a table, unified for the CLI.
type Artifact struct {
	// CSV is the machine-readable rendering.
	CSV string
	// Pretty is the human-readable rendering (summary or markdown).
	Pretty string
}

// Runner regenerates one paper artifact at the given scale and seed.
type Runner func(sc Scale, seed uint64) Artifact

// Registry maps experiment IDs (fig2a … table1, plus ablations) to
// runners. Every runner that trains asks runs for its runs, so a run two
// artifacts share is trained once; a nil runs trains every run each time it
// is asked for.
func Registry(runs *Runs) map[string]Runner {
	fig := func(f func(*Runs, Scale, uint64) *trace.Figure) Runner {
		return func(sc Scale, seed uint64) Artifact { return figArtifact(f(runs, sc, seed)) }
	}
	table := func(f func(*Runs, Scale, uint64) *trace.Table) Runner {
		return func(sc Scale, seed uint64) Artifact { return tableArtifact(f(runs, sc, seed)) }
	}
	return map[string]Runner{
		"fig2a":           func(sc Scale, seed uint64) Artifact { return figArtifact(Fig2a()) },
		"fig2b":           fig(Fig2b),
		"fig5":            func(sc Scale, seed uint64) Artifact { return figArtifact(Fig5(sc, seed)) },
		"fig6":            func(sc Scale, seed uint64) Artifact { return figArtifact(Fig6(sc, seed)) },
		"fig7":            fig(Fig7),
		"fig8":            func(sc Scale, seed uint64) Artifact { return figArtifact(Fig8()) },
		"fig9":            fig(Fig9),
		"fig10":           fig(Fig10),
		"fig11":           fig(Fig11),
		"fig12":           fig(Fig12),
		"table1":          table(Table1),
		"abl-variance":    fig(AblationVariance),
		"abl-aggregation": fig(AblationAggregation),
		"abl-regroup":     fig(AblationRegroup),
		"theory":          func(sc Scale, seed uint64) Artifact { return figArtifact(TheoryFigure(sc, seed)) },
		"dropout":         fig(DropoutRobustness),
		"costbreak":       func(sc Scale, seed uint64) Artifact { return tableArtifact(CostBreakdown(sc, seed)) },
		"fairness":        table(FairnessTable),
	}
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	reg := Registry(nil)
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ScaleByName resolves "small"/"medium"/"paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return Small(), nil
	case "medium":
		return Medium(), nil
	case "paper":
		return Paper(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want small, medium, or paper)", name)
}

type csvSummarizer interface {
	CSV() string
	Summary() string
	Sparklines() string
}

func figArtifact(f csvSummarizer) Artifact {
	return Artifact{CSV: f.CSV(), Pretty: f.Summary() + "\n" + f.Sparklines()}
}

func tableArtifact(t *trace.Table) Artifact {
	return Artifact{CSV: t.CSV(), Pretty: t.Markdown()}
}
