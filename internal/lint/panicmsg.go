package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

// panicPrefixRe matches the repository's panic convention: a lowercase
// package tag followed by ": " ("tensor: MatMul inner dims 3 vs 4").
var panicPrefixRe = regexp.MustCompile(`^[a-z][a-zA-Z0-9_/-]*: `)

// PanicMessage requires panics in library packages (everything that is not
// package main and not a test) to carry a "pkg: "-prefixed string message,
// the existing "tensor:"/"stats:"/"fel:" convention. A bare panic(err) tells
// the operator nothing about which subsystem gave up; the prefix does.
var PanicMessage = &Analyzer{
	Name: "panic-message",
	Doc:  `library panics must carry a "pkg: "-prefixed message`,
	Run: func(pass *Pass) {
		if pass.Pkg.Name == "main" {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if b, ok := pass.UseOf(id).(*types.Builtin); !ok || b.Name() != "panic" {
					return true
				}
				if !panicHasPrefix(pass, call.Args[0]) {
					pass.Reportf(call.Pos(),
						`panic message must be a string starting with a lowercase "pkg: " prefix (e.g. "tensor: shape mismatch")`)
				}
				return true
			})
		}
	},
}

// panicHasPrefix reports whether the panic argument demonstrably starts
// with a "pkg: " tag: a constant string, a fmt.Sprintf/fmt.Errorf whose
// format literal is prefixed, or a string concatenation whose leftmost
// operand is.
func panicHasPrefix(pass *Pass, arg ast.Expr) bool {
	if s, ok := constStringValue(pass, arg); ok {
		return panicPrefixRe.MatchString(s)
	}
	switch arg := arg.(type) {
	case *ast.BinaryExpr:
		if arg.Op == token.ADD {
			return panicHasPrefix(pass, arg.X)
		}
	case *ast.CallExpr:
		if fn := calleeOf(pass.Pkg, arg); fn != nil {
			switch fn.FullName() {
			case "fmt.Sprintf", "fmt.Errorf":
				if len(arg.Args) > 0 {
					return panicHasPrefix(pass, arg.Args[0])
				}
			}
		}
	}
	return false
}

// constStringValue resolves arg to a compile-time string constant, through
// named constants and folded concatenations alike.
func constStringValue(pass *Pass, arg ast.Expr) (string, bool) {
	tv, ok := pass.constTypeAndValue(arg)
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
