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

// Registry maps experiment IDs (fig2a … table1, plus ablations) to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig2a":           func(sc Scale, seed uint64) Artifact { return figArtifact(Fig2a()) },
		"fig2b":           func(sc Scale, seed uint64) Artifact { return figArtifact(Fig2b(sc, seed)) },
		"fig5":            func(sc Scale, seed uint64) Artifact { return figArtifact(Fig5(sc, seed)) },
		"fig6":            func(sc Scale, seed uint64) Artifact { return figArtifact(Fig6(sc, seed)) },
		"fig7":            func(sc Scale, seed uint64) Artifact { return figArtifact(Fig7(sc, seed)) },
		"fig8":            func(sc Scale, seed uint64) Artifact { return figArtifact(Fig8()) },
		"fig9":            func(sc Scale, seed uint64) Artifact { return figArtifact(Fig9(sc, seed)) },
		"fig10":           func(sc Scale, seed uint64) Artifact { return figArtifact(Fig10(sc, seed)) },
		"fig11":           func(sc Scale, seed uint64) Artifact { return figArtifact(Fig11(sc, seed)) },
		"fig12":           func(sc Scale, seed uint64) Artifact { return figArtifact(Fig12(sc, seed)) },
		"table1":          func(sc Scale, seed uint64) Artifact { return tableArtifact(Table1(sc, seed)) },
		"abl-variance":    func(sc Scale, seed uint64) Artifact { return figArtifact(AblationVariance(sc, seed)) },
		"abl-aggregation": func(sc Scale, seed uint64) Artifact { return figArtifact(AblationAggregation(sc, seed)) },
		"abl-regroup":     func(sc Scale, seed uint64) Artifact { return figArtifact(AblationRegroup(sc, seed)) },
		"abl-gamma":       func(sc Scale, seed uint64) Artifact { return figArtifact(AblationGamma(sc, seed)) },
		"theory":          func(sc Scale, seed uint64) Artifact { return figArtifact(TheoryFigure(sc, seed)) },
		"dropout":         func(sc Scale, seed uint64) Artifact { return figArtifact(DropoutRobustness(sc, seed)) },
		"costbreak":       func(sc Scale, seed uint64) Artifact { return tableArtifact(CostBreakdown(sc, seed)) },
		"fairness":        func(sc Scale, seed uint64) Artifact { return tableArtifact(FairnessTable(sc, seed)) },
		"compression":     func(sc Scale, seed uint64) Artifact { return tableArtifact(CompressionTable(sc, seed)) },
		"multimodel":      func(sc Scale, seed uint64) Artifact { return tableArtifact(MultiModelTable(sc, seed)) },
		"async-vs-sync":   func(sc Scale, seed uint64) Artifact { return tableArtifact(AsyncVsSync(sc, seed)) },
	}
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	reg := Registry()
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
