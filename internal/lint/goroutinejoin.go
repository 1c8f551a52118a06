package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// spawners are the functions that may hold a go statement: package path
// suffix, then function ("pkg.F") or method ("pkg.(*T).M", "pkg.(T).M").
var spawners = []string{
	"internal/cpu.fan",
	"internal/felserve.newService",
	"internal/felserve.(*Service).Serve",
	"internal/faultnet.(*sim).AfterFunc",
	"internal/fednode.(*Edge).Run",
	"cmd/felnode.startMetrics",
	"bench.(*speedometer).sample",
	"bench.(*speedometer).during",
	"bench.startServe",
}

// GoroutineJoin keeps the spawn sites few and named. Whether a goroutine is
// joined is checked by running it: the tests of every listed package run
// under internal/leakcheck, which fails on any goroutine that outlives them.
// The rule holds the list to the tree: a go statement in a non-test file must
// sit in a function of spawners, so a new spawn site is one more row here and
// one more leak-checked test.
var GoroutineJoin = &Analyzer{
	Name: "goroutine-join",
	Doc:  "a go statement outside tests sits in one of the listed spawners, whose tests run under internal/leakcheck",
	Run:  runGoroutineJoin,
}

func runGoroutineJoin(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			name := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				name = fd.Name.Name
				if fd.Recv != nil {
					name = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + name
				}
			}
			listed := slices.ContainsFunc(spawners, func(s string) bool {
				return strings.HasSuffix("/"+pass.Pkg.Path+"."+name, "/"+s)
			})
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && !listed {
					pass.Reportf(g.Pos(), "go statement outside the listed spawners: start goroutines in a function of goroutinejoin.go's list, whose tests run under internal/leakcheck")
				}
				return true
			})
		}
	}
}
