package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineJoin requires every `go` statement to be part of a join protocol
// the type checker can certify: the spawned body must signal completion
// through a concrete token — a sync.WaitGroup (Done/Add) or a channel (send
// or close) — and that same token object must be waited on by the spawner
// (WaitGroup.Wait, a receive, a range, a select case) or escape as a join
// handle (struct field, argument to another function, return value). It
// supersedes the purely syntactic naked-goroutine rule: "there is a Wait
// somewhere in this function" no longer counts unless it waits on the
// goroutine's own token. Genuinely fire-and-forget goroutines must carry a
// //lint:ignore goroutine-join <reason> directive.
var GoroutineJoin = &Analyzer{
	Name: "goroutine-join",
	Doc:  "every go statement's WaitGroup or channel token must be joined by its spawner or escape as a join handle",
	Run:  runGoroutineJoin,
}

func runGoroutineJoin(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkGoroutines(pass, fd.Body)
			}
		}
	}
}

// checkGoroutines inspects one function body: it gathers the `go` statements
// whose innermost enclosing function is this body (recursing into nested
// function literals for their own checks) and verifies the join protocol for
// each against the full body.
func checkGoroutines(pass *Pass, body *ast.BlockStmt) {
	var goStmts []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			goStmts = append(goStmts, n)
			// The spawned literal's body belongs to the goroutine; it gets
			// its own check as a spawner in its own right.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkGoroutines(pass, lit.Body)
			}
			return false
		case *ast.FuncLit:
			checkGoroutines(pass, n.Body)
			return false
		}
		return true
	})
	for _, g := range goStmts {
		checkOneGoroutine(pass, g, body)
	}
}

// signalToken is one completion signal found in a spawned body, resolved to
// the object it signals through. A nil obj means the signal exists but its
// token could not be resolved statically.
type signalToken struct {
	obj       types.Object
	waitGroup bool // true: WaitGroup Done/Add; false: channel send/close
}

// escapingSentinel marks tokens that are, by construction, join handles
// owned elsewhere (receiver fields or package state of a named callee).
var escapingSentinel types.Object = types.NewVar(0, nil, "<escaping>", nil)

func checkOneGoroutine(pass *Pass, g *ast.GoStmt, spawner *ast.BlockStmt) {
	tokens, known := spawnSignals(pass, g)
	if !known {
		// The spawned callee's body lies outside the module (or the call is
		// dynamically dispatched): fall back to requiring any join evidence
		// at all in the spawner.
		if !hasAnyJoin(pass, spawner) {
			pass.Reportf(g.Pos(), "goroutine runs an unresolvable callee and the spawner shows no join (WaitGroup.Wait, receive, range, or select); it can outlive its spawner")
		}
		return
	}
	if len(tokens) == 0 {
		pass.Reportf(g.Pos(), "goroutine never signals completion (no WaitGroup.Done, channel send, or close in its body); it cannot be joined and can leak")
		return
	}
	for _, tok := range tokens {
		if tok.obj == nil {
			if !hasAnyJoin(pass, spawner) {
				pass.Reportf(g.Pos(), "goroutine signals completion through an expression the analyzer cannot resolve and the spawner shows no join; it can outlive its spawner")
			}
			return
		}
		if isEscapingToken(tok.obj) || tokenJoined(pass, spawner, g, tok) {
			return
		}
	}
	tok := tokens[0]
	what := "channel " + tok.obj.Name()
	join := "receives from, ranges over, or selects on it"
	if tok.waitGroup {
		what = "WaitGroup " + tok.obj.Name()
		join = "calls " + tok.obj.Name() + ".Wait()"
	}
	pass.Reportf(g.Pos(), "goroutine signals completion on %s but the spawner never %s and the token does not escape as a join handle; the goroutine can leak", what, join)
}

// spawnSignals resolves the completion signals of the spawned computation.
// known reports whether a body was available to inspect.
func spawnSignals(pass *Pass, g *ast.GoStmt) (tokens []signalToken, known bool) {
	if fun, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		raw := bodySignals(pass.Pkg, fun.Body)
		return substituteParams(pass.Pkg, pass.Pkg, raw, fun.Type, g.Call.Args), true
	}
	callee := calleeOf(pass.Pkg, g.Call)
	if callee == nil || pass.Mod == nil {
		return nil, false
	}
	fi := pass.Mod.FuncInfoOf(callee)
	if fi == nil {
		return nil, false
	}
	raw := bodySignals(fi.Pkg, fi.Decl.Body)
	// Signals on the callee's own parameters map back to the spawner's
	// argument objects; signals on anything else the callee owns (receiver
	// fields, locals, package state) mean the callee manages its own join
	// protocol — treat those as escaping handles.
	mapped := substituteParams(fi.Pkg, pass.Pkg, raw, fi.Decl.Type, g.Call.Args)
	for i := range mapped {
		if mapped[i].obj != nil && mapped[i].obj == raw[i].obj {
			mapped[i].obj = escapingSentinel
		}
	}
	return mapped, true
}

// substituteParams rewrites signal tokens that are parameters of fnType into
// the root objects of the corresponding call arguments, so the join check
// runs against the spawner's own variables. Parameter idents resolve in the
// declaring package, argument expressions in the calling package.
func substituteParams(declPkg, callPkg *Package, tokens []signalToken, fnType *ast.FuncType, args []ast.Expr) []signalToken {
	if fnType == nil || fnType.Params == nil {
		return tokens
	}
	paramIdx := make(map[types.Object]int)
	i := 0
	for _, field := range fnType.Params.List {
		for _, name := range field.Names {
			if obj := declPkg.objectOf(name); obj != nil {
				paramIdx[obj] = i
			}
			i++
		}
	}
	out := make([]signalToken, len(tokens))
	copy(out, tokens)
	for i, tok := range out {
		if tok.obj == nil {
			continue
		}
		if idx, ok := paramIdx[tok.obj]; ok && idx < len(args) {
			out[i].obj = rootObject(callPkg, args[idx])
		}
	}
	return out
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

// bodySignals scans a spawned body for completion signals: WaitGroup
// Done/Add calls, channel sends, and close calls.
func bodySignals(pkg *Package, body *ast.BlockStmt) []signalToken {
	var out []signalToken
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			out = append(out, signalToken{obj: rootObject(pkg, n.Chan)})
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if (sel.Sel.Name == "Done" || sel.Sel.Name == "Add") && isWaitGroupRecv(pkg, sel.X) {
					out = append(out, signalToken{obj: rootObject(pkg, sel.X), waitGroup: true})
				}
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if b, ok := pkg.useOf(id).(*types.Builtin); ok && b.Name() == "close" {
					out = append(out, signalToken{obj: rootObject(pkg, n.Args[0])})
				}
			}
		}
		return true
	})
	return out
}

// rootObject resolves the object a token expression names: the variable of
// an identifier, the field of a selector, the indexed collection of an index
// expression. Returns nil for anything else (call results, literals).
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

// isEscapingToken reports whether the token object is by nature a join
// handle owned beyond the spawning function: struct fields and package-level
// variables outlive the call.
func isEscapingToken(obj types.Object) bool {
	if obj == escapingSentinel {
		return true
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.IsField() {
		return true
	}
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// tokenJoined reports whether the spawner body joins on the specific token —
// Wait() on the WaitGroup object, or a receive/range/select on the channel
// object — or lets the token escape (argument to a call, return value,
// composite literal element, assignment into a field or index), which hands
// the join duty to someone who can still perform it. The scan covers the
// whole spawning function including sibling goroutine bodies: a dedicated
// collector goroutine draining the channel is a legitimate consumer.
func tokenJoined(pass *Pass, body *ast.BlockStmt, g *ast.GoStmt, tok signalToken) bool {
	found := false
	sameObj := func(e ast.Expr) bool {
		return rootObject(pass.Pkg, e) == tok.obj
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			if n == g {
				// The goroutine cannot join itself; its own statement (call
				// arguments included — they were already resolved through
				// spawnSignals) contributes no join evidence.
				return false
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !tok.waitGroup && sameObj(n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if !tok.waitGroup && sameObj(n.X) {
				found = true
			}
		case *ast.SelectStmt:
			if !tok.waitGroup {
				for _, cl := range n.Body.List {
					if comm, ok := cl.(*ast.CommClause); ok && comm.Comm != nil {
						ast.Inspect(comm.Comm, func(m ast.Node) bool {
							if e, ok := m.(ast.Expr); ok && sameObj(e) {
								found = true
							}
							return !found
						})
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if tok.waitGroup && sel.Sel.Name == "Wait" && sameObj(sel.X) {
					found = true
					return false
				}
			}
			// Token passed to another function: escaping join handle.
			for _, arg := range n.Args {
				if sameObj(arg) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if sameObj(r) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if sameObj(e) {
					found = true
				}
			}
		case *ast.AssignStmt:
			// Storing the token into a field, index, or dereference hands it
			// to a longer-lived owner.
			for i, rhs := range n.Rhs {
				if !sameObj(rhs) || i >= len(n.Lhs) {
					continue
				}
				switch ast.Unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					found = true
				}
			}
		case *ast.SendStmt:
			if sameObj(n.Value) {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasAnyJoin is the syntactic fallback for goroutines whose signal tokens
// cannot be resolved: any WaitGroup.Wait, receive, channel range, or select
// in the spawning body counts.
func hasAnyJoin(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && isWaitGroupRecv(pass.Pkg, sel.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroupRecv reports whether e's type is sync.WaitGroup or a pointer to
// it.
func isWaitGroupRecv(pkg *Package, e ast.Expr) bool {
	t := pkg.typeOf(e)
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
