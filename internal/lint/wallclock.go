package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// wallclockFuncs are the package time functions that read or wait on the
// wall clock. Referencing one without calling it counts too: a function value
// is how a clock gets injected into code that later ticks.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// clockImporters are the packages that may take time from internal/clock:
// the networked stack, the metrics span layer, Fig. 5's formation timer and
// the tests' leak check.
var clockImporters = []string{
	"internal/fednode", "internal/faultnet", "internal/felserve",
	"internal/metrics", "internal/experiments", "internal/leakcheck",
}

// Wallclock makes internal/clock the one owner of time. Replayable runs derive
// every quantity from the seeded RNG, so a stray time.Now in a helper would
// silently break bit-identical replay. In the non-test files of every
// non-main package it checks two things:
//
//   - outside internal/clock, no identifier resolves to one of package time's
//     wall-clock functions (methods of time.Time, such as After, are not
//     package functions and stay allowed);
//   - only the packages in clockImporters import internal/clock, so a
//     replay-pinned package cannot read the wall clock through clock.Real.
//
// Package main (commands, examples, the benchmark) and test files may read
// the wall clock. A function value handed over at run time, such as a metrics
// span, is invisible to the rule.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "only internal/clock calls time.Now/Since/Sleep/...; only the networked stack, metrics, experiments and leakcheck import it",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Name == "main" || pkg.Info == nil || strings.HasSuffix(pkg.Path, "internal/clock") {
		return
	}
	mayImport := slices.ContainsFunc(clockImporters, func(p string) bool { return strings.HasSuffix(pkg.Path, p) })
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && strings.HasSuffix(path, "internal/clock") && !mayImport {
				pass.Reportf(imp.Pos(), "import %q: only fednode, faultnet, felserve, metrics, experiments and leakcheck take time from internal/clock; replayable code reads no clock", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallclockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(id.Pos(), "time.%s outside internal/clock: take time from a clock.Clock so no wall-clock read can feed a replayable result", fn.Name())
			}
			return true
		})
	}
}
