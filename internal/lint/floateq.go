package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq forbids == and != between floating-point operands outside test
// files. Accumulated losses, accuracies, and weights differ in the last ulp
// across algebraically equivalent reductions, so exact comparison is almost
// always a bug; use stats.ApproxEqual / stats.NearZero instead. Intentional
// exact comparisons (sparsity fast paths, resampling loops on exact zeros)
// must be annotated with //lint:ignore float-eq <reason>. Tests are exempt:
// this repository's contract is bit-identity, and an exact compare in a test
// is how that contract is asserted.
var FloatEq = &Analyzer{
	Name: "float-eq",
	Doc:  "forbid ==/!= on floating-point operands outside tests",
	Run: func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if isFloat(pass.TypeOf(be.X)) || isFloat(pass.TypeOf(be.Y)) {
					pass.Reportf(be.OpPos,
						"floating-point %s comparison: use stats.ApproxEqual/stats.NearZero, or annotate an intentional exact compare with //lint:ignore float-eq <reason>", be.Op)
				}
				return true
			})
		}
	},
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
