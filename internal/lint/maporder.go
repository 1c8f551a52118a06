package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` statements over maps whose bodies feed order-
// sensitive sinks: floating-point accumulation (a += v and friends — FP
// addition is not associative, so iteration order leaks into the result),
// appends to slices declared outside the range (the slice ends up in map
// order) unless the slice is sorted afterwards in the same function, and
// byte/wire encoding calls (the encoded stream becomes nondeterministic).
// This is the static form of the repo's bit-identical-replay invariant:
// aggregation in internal/core and snapshot encoding in internal/metrics
// must never depend on Go's randomized map iteration order.
var MapOrder = &Analyzer{
	Name: "map-order",
	Doc:  "range over a map must not feed float accumulation, unsorted slice appends, or byte/wire encoding",
	Run:  runMapOrder,
}

// encodingMethods are method (or function) names whose invocation inside a
// map range writes bytes in iteration order.
var encodingMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Marshal": true, "Sum": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRangeBody(pass, fd, rng)
				return true
			})
		}
	}
}

func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkFloatAccum(pass, rng, n)
			checkAppendSink(pass, fd, rng, n)
		case *ast.CallExpr:
			checkEncodingSink(pass, rng, n)
		}
		return true
	})
}

// checkFloatAccum flags compound float accumulation into a target that
// outlives the range body. Indexed targets (m[k] += v) are exempt: each
// element accumulates independently of sibling iterations.
func checkFloatAccum(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt) {
	accum := false
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		accum = true
	case token.ASSIGN:
		// x = x + v (or x - v, ...) spelled out.
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					accum = sameRef(pass, as.Lhs[0], bin.X) || sameRef(pass, as.Lhs[0], bin.Y)
				}
			}
		}
	}
	if !accum || len(as.Lhs) != 1 {
		return
	}
	lhs := ast.Unparen(as.Lhs[0])
	switch lhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return // indexed or dereferenced element: per-key accumulation
	}
	t := pass.TypeOf(lhs)
	if t == nil || !isFloat(t) {
		return
	}
	if obj := rootObject(pass.Pkg, lhs); obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
		return // accumulator local to one iteration
	}
	pass.Reportf(as.Pos(), "floating-point accumulation inside a map range: addition order follows map iteration order and is nondeterministic; iterate sorted keys instead")
}

// sameRef reports whether two expressions resolve to the same object.
func sameRef(pass *Pass, a, b ast.Expr) bool {
	oa := rootObject(pass.Pkg, a)
	return oa != nil && oa == rootObject(pass.Pkg, b)
}

// checkAppendSink flags x = append(x, ...) where x is declared outside the
// range, unless a sort.*/slices.* call mentioning x follows the range in the
// same function body — the standard collect-then-sort mitigation.
func checkAppendSink(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if b, ok := pass.UseOf(id).(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		target := rootObject(pass.Pkg, as.Lhs[i])
		if target == nil {
			continue
		}
		if target.Pos() >= rng.Pos() && target.Pos() <= rng.End() {
			continue // slice local to the iteration
		}
		if sortedAfter(pass, fd, rng, target) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %s inside a map range leaves it in nondeterministic map order; sort the keys first or sort %s after the range", target.Name(), target.Name())
	}
}

// sortedAfter reports whether a sort.* or slices.* call that mentions target
// appears after the range in fd's body.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.UseOf(sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.UseOf(id) == target {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// checkEncodingSink flags byte/wire-encoding calls inside a map range: the
// produced byte stream follows iteration order.
func checkEncodingSink(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	fn, _ := pass.UseOf(sel.Sel).(*types.Func)
	if fn == nil {
		return
	}
	isBinary := fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary"
	if !encodingMethods[name] && !isBinary {
		return
	}
	// Only flag encoders whose receiver/stream outlives the iteration: a
	// method on an object declared inside the body encodes per-key data.
	if recvObj := rootObject(pass.Pkg, sel.X); recvObj != nil &&
		recvObj.Pos() >= rng.Pos() && recvObj.Pos() <= rng.End() {
		return
	}
	// Skip encoders writing to per-iteration destinations via first arg
	// (binary.Write(buf, ...) with buf local to the body).
	if isBinary && len(call.Args) > 0 {
		if dst := rootObject(pass.Pkg, call.Args[0]); dst != nil &&
			dst.Pos() >= rng.Pos() && dst.Pos() <= rng.End() {
			return
		}
	}
	verb := name
	if isBinary {
		verb = "binary." + name
	}
	pass.Reportf(call.Pos(), "%s inside a map range encodes bytes in nondeterministic map iteration order; iterate sorted keys instead", verb)
}

// rootObject resolves the object an expression names: the variable of an
// identifier, the field of a selector, the collection of an index expression,
// the operand of a unary one. Returns nil for anything else (call results,
// literals).
func rootObject(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pkg.objectOf(e)
	case *ast.SelectorExpr:
		return pkg.objectOf(e.Sel)
	case *ast.IndexExpr:
		return rootObject(pkg, e.X)
	case *ast.UnaryExpr:
		return rootObject(pkg, e.X)
	}
	return nil
}

// objectOf resolves an ident (definition or use) across both type-checked
// units of the package.
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if p.Info != nil {
		if o := p.Info.ObjectOf(id); o != nil {
			return o
		}
	}
	if p.TestInfo != nil {
		return p.TestInfo.ObjectOf(id)
	}
	return nil
}
