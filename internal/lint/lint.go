// Package lint implements repolint, the repository's own static-analysis
// pass. It is built entirely on the standard library (go/ast, go/parser,
// go/types, go/importer) so the module stays dependency-free: module packages
// are type-checked from source, standard-library types are read from the
// export data the toolchain compiled (one `go list -export std` per process,
// so the go tool must be on PATH at run time, as it is under go test). It
// encodes project invariants that ordinary go vet does not know about:
//
//   - rng-discipline: all stochasticity flows through the seeded
//     repro/internal/stats.RNG, so experiment runs are replayable and the
//     paper's sampling-variance results are the ones actually measured.
//   - goroutine-join: a go statement outside tests sits in one of nine
//     listed functions; that each goroutine is joined is checked by running
//     it, under internal/leakcheck in those packages' tests.
//   - float-eq: no ==/!= on floating-point operands outside test files;
//     numeric comparisons go through the epsilon helpers in internal/stats.
//   - dropped-error: no silently discarded error returns, in tests either.
//   - panic-message: panics in library packages carry a "pkg: " prefix.
//   - map-order: a range over a map whose body feeds floating-point
//     accumulation, an unsorted slice append, or byte/wire encoding is a
//     determinism violation — iteration order would leak into results.
//   - wallclock: only internal/clock reads time.Now/Since/Sleep/..., and
//     only the networked stack, metrics and experiments import it.
//   - metric-schema: literal metric names handed to internal/metrics follow
//     fel_<layer>_<name> with a known layer and the suffix of their kind.
//   - ignore-audit: every //lint:ignore directive still suppresses at
//     least one diagnostic of a rule that ran; stale ignores are flagged.
//
// Legitimate exceptions are declared in-source with an auditable
//
//	//lint:ignore <rule> <reason>
//
// comment on the offending line or the line directly above it; any other
// //lint: comment is reported as an unknown directive. Steady-state
// allocation is not a lint rule: the testing.AllocsPerRun tests beside each
// hot function measure what escape analysis decided (DESIGN.md S26).
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Diagnostic is one reported violation. File is relative to the module root
// when the package was loaded with LoadModule.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one lint rule: a name (used in diagnostics and in
// //lint:ignore directives), a short doc string, and a Run function that
// inspects a single package and reports violations through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		RNGDiscipline,
		GoroutineJoin,
		FloatEq,
		DroppedError,
		PanicMessage,
		MapOrder,
		Wallclock,
		MetricSchema,
		IgnoreAudit,
	}
}

// ByName resolves analyzer names (comma-separated lists are handled by the
// caller) to analyzers. Unknown names return an error listing valid rules.
func ByName(name string) (*Analyzer, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	valid := make([]string, 0, len(All()))
	for _, a := range All() {
		valid = append(valid, a.Name)
	}
	return nil, fmt.Errorf("lint: unknown rule %q (valid: %v)", name, valid)
}

// Pass is the per-(package, analyzer) context handed to Analyzer.Run. Mod
// gives the analyzers the whole-module view: the file index through which a
// diagnostic finds the //lint:ignore scope of the package that owns it.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Mod      *Module
	diags    *[]Diagnostic
	ranRules map[string]bool // rules the surrounding Check invocation runs
}

// TypeOf returns the type of expr, consulting the non-test type information
// first and the test-unit information second, or nil when expr lies outside
// both checked file sets.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if p.Pkg.Info != nil {
		if t := p.Pkg.Info.TypeOf(expr); t != nil {
			return t
		}
	}
	if p.Pkg.TestInfo != nil {
		return p.Pkg.TestInfo.TypeOf(expr)
	}
	return nil
}

// UseOf resolves an identifier use to its object, consulting the non-test
// and then the test-unit information.
func (p *Pass) UseOf(id *ast.Ident) types.Object {
	return p.Pkg.useOf(id)
}

func (p *Package) useOf(id *ast.Ident) types.Object {
	if p.Info != nil {
		if o := p.Info.Uses[id]; o != nil {
			return o
		}
	}
	if p.TestInfo != nil {
		return p.TestInfo.Uses[id]
	}
	return nil
}

// constTypeAndValue resolves expr's compile-time constant value, if any.
func (p *Pass) constTypeAndValue(expr ast.Expr) (types.TypeAndValue, bool) {
	if p.Pkg.Info != nil {
		if tv, ok := p.Pkg.Info.Types[expr]; ok {
			return tv, true
		}
	}
	if p.Pkg.TestInfo != nil {
		if tv, ok := p.Pkg.TestInfo.Types[expr]; ok {
			return tv, true
		}
	}
	return types.TypeAndValue{}, false
}

// Reportf records a violation at pos unless an in-scope //lint:ignore
// directive suppresses it. The directive is looked up in the package that
// owns the position's file — flow-sensitive analyzers may report positions
// outside the package currently under analysis.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Pkg.Fset.Position(pos), format, args...)
}

// reportAt is Reportf for positions already resolved against the fileset
// (the ignore-audit pass stores directive positions resolved).
func (p *Pass) reportAt(position token.Position, format string, args ...any) {
	owner := p.Pkg
	if p.Mod != nil {
		if o := p.Mod.ownerOf(position.Filename); o != nil {
			owner = o
		}
	}
	if owner.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		File:    owner.relFile(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Check runs the given analyzers over the given packages and returns all
// diagnostics sorted by file, line, column, and rule. Malformed //lint:
// directives are reported as diagnostics too (rule "lint-directive"), so
// suppressions stay auditable. The ignore-audit analyzer, when included,
// runs last — after every other analyzer has had the chance to mark the
// directives it used — regardless of its position in analyzers.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	mod := NewModule(pkgs)
	var diags []Diagnostic
	ranRules := make(map[string]bool, len(analyzers))
	audit := false
	for _, a := range analyzers {
		if a.Name == IgnoreAudit.Name {
			audit = true
			continue
		}
		ranRules[a.Name] = true
	}
	for _, pkg := range pkgs {
		diags = append(diags, pkg.directiveDiags...)
	}
	for _, a := range analyzers {
		if a.Name == IgnoreAudit.Name {
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Mod: mod, diags: &diags})
		}
	}
	if audit {
		for _, pkg := range pkgs {
			IgnoreAudit.Run(&Pass{Analyzer: IgnoreAudit, Pkg: pkg, Mod: mod, diags: &diags, ranRules: ranRules})
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), cmp.Compare(a.Rule, b.Rule))
	})
	return diags
}
