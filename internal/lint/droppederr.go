package lint

import (
	"go/ast"
	"go/types"
)

// DroppedError flags silently discarded errors, test files included: calls
// used as bare statements (or deferred) whose results include an error, and
// assignments that send an error to the blank identifier. A small allowlist
// covers calls that cannot meaningfully fail: fmt printing to stdout/stderr
// and writes to strings.Builder / bytes.Buffer, which are documented to
// never return an error. Anything else must be handled, returned, or
// annotated with //lint:ignore dropped-error <reason>.
var DroppedError = &Analyzer{
	Name: "dropped-error",
	Doc:  "flag discarded error returns (tests included)",
	Run:  runDroppedError,
}

func runDroppedError(pass *Pass) {
	for _, f := range pass.Pkg.AllFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkCallDiscard(pass, call, "call discards an error result")
				}
			case *ast.DeferStmt:
				checkCallDiscard(pass, n.Call, "deferred call discards an error result")
			case *ast.AssignStmt:
				checkBlankErrorAssign(pass, n)
			}
			return true
		})
	}
}

// checkCallDiscard reports call if its result signature includes an error
// and the callee is not allowlisted.
func checkCallDiscard(pass *Pass, call *ast.CallExpr, what string) {
	if !resultHasError(pass, call) || allowedUnchecked(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "%s: %s returns an error that is never checked", what, calleeName(pass, call))
}

// checkBlankErrorAssign reports assignments of an error value to _.
func checkBlankErrorAssign(pass *Pass, as *ast.AssignStmt) {
	// x, _ := f() with a single multi-value call on the right.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := pass.TypeOf(call).(*types.Tuple)
		if !ok {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && i < tuple.Len() && isErrorType(tuple.At(i).Type()) && !allowedUnchecked(pass, call) {
				pass.Reportf(lhs.Pos(), "error from %s discarded with _; handle it or annotate with //lint:ignore dropped-error <reason>", calleeName(pass, call))
			}
		}
		return
	}
	// _ = f() pairwise assignments.
	for i, lhs := range as.Lhs {
		if !isBlank(lhs) || i >= len(as.Rhs) {
			continue
		}
		if isErrorType(pass.TypeOf(as.Rhs[i])) {
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if ok && allowedUnchecked(pass, call) {
				continue
			}
			pass.Reportf(lhs.Pos(), "error value discarded with _; handle it or annotate with //lint:ignore dropped-error <reason>")
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// resultHasError reports whether the call's result type is or contains error.
func resultHasError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func calleeName(pass *Pass, call *ast.CallExpr) string {
	if fn := calleeOf(pass.Pkg, call); fn != nil {
		return fn.FullName()
	}
	return "call"
}

// stdoutPrinters never have an actionable error: stdout/stderr write
// failures leave a CLI with nothing better to do.
var stdoutPrinters = map[string]bool{
	"fmt.Print":   true,
	"fmt.Printf":  true,
	"fmt.Println": true,
}

var fprinters = map[string]bool{
	"fmt.Fprint":   true,
	"fmt.Fprintf":  true,
	"fmt.Fprintln": true,
}

// allowedUnchecked reports whether the call's error is conventionally
// ignorable: fmt printing to stdout/stderr, fmt.Fprint* into an in-memory
// builder/buffer, or any method on strings.Builder / bytes.Buffer (both
// documented to never return a non-nil error).
func allowedUnchecked(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeOf(pass.Pkg, call)
	if fn == nil {
		return false
	}
	name := fn.FullName()
	if stdoutPrinters[name] {
		return true
	}
	if fprinters[name] && len(call.Args) > 0 {
		if isInMemoryWriter(pass.TypeOf(call.Args[0])) || isStdStream(pass, call.Args[0]) {
			return true
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if isInMemoryWriter(sig.Recv().Type()) {
			return true
		}
	}
	return false
}

func isInMemoryWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func isStdStream(pass *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := pass.UseOf(sel.Sel).(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != "os" {
		return false
	}
	return v.Name() == "Stdout" || v.Name() == "Stderr"
}
