package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Module is the whole-program view shared by the flow-sensitive analyzers:
// an index of every function declaration, an intra-module call graph whose
// interface-method calls are resolved to every module implementation (class
// hierarchy analysis over go/types), the //lint:deterministic roots, and a
// file → package index so diagnostics reported across package boundaries
// find the right //lint:ignore scope.
//
// The graph covers non-test code only: test functions are neither roots nor
// edges, so a test calling time.Now never taints a deterministic path.
type Module struct {
	Pkgs []*Package

	byFile map[string]*Package
	funcs  map[*types.Func]*FuncInfo
	order  []*FuncInfo // declaration order: packages sorted, files sorted, decls top-down

	named []*types.Named // every named (non-alias) type declared in the module

	implCache map[implKey][]*types.Func

	detDone bool
	detVia  map[*types.Func]reachEdge
}

// FuncInfo is one function or method declaration in the module.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Deterministic mirrors a //lint:deterministic annotation on the decl.
	Deterministic bool

	// Callees are the statically resolved outgoing edges: direct calls to
	// module functions plus, for interface-method calls, every module method
	// that implements the interface (CHA). Dynamic calls through plain func
	// values stay invisible — the analyzers that need soundness there say so
	// in their docs.
	Callees []*types.Func

	// TimeUses are direct uses (calls or value references) of the wall-clock
	// functions in package time.
	TimeUses []TimeUse
}

// TimeUse is one direct use of a package time wall-clock function.
type TimeUse struct {
	Pos  token.Pos
	Name string // e.g. "Now", "Sleep"
}

type implKey struct {
	iface  *types.Interface
	method string
}

type reachEdge struct {
	root, from *types.Func
}

// wallclockFuncs are the package time functions that read or depend on the
// wall clock. Referencing one (even without calling it) inside a
// deterministic path is a violation: the reference is how clocks get
// injected into places that later tick.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// NewModule indexes pkgs and builds the call graph. pkgs must come from one
// loader invocation (LoadModule, or LoadDir for fixtures) so that
// cross-package object identities agree.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:      pkgs,
		byFile:    make(map[string]*Package),
		funcs:     make(map[*types.Func]*FuncInfo),
		implCache: make(map[implKey][]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.AllFiles() {
			m.byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
		if pkg.Types != nil {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() { // Names() is sorted
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok {
						m.named = append(m.named, named)
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || pkg.Info == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Obj:           obj,
					Decl:          fd,
					Pkg:           pkg,
					Deterministic: pkg.HasAnnotation(fd, "deterministic"),
				}
				m.funcs[obj] = fi
				m.order = append(m.order, fi)
			}
		}
	}
	for _, fi := range m.order {
		m.buildEdges(fi)
	}
	return m
}

// ownerOf returns the package whose file set contains filename, or nil.
func (m *Module) ownerOf(filename string) *Package { return m.byFile[filename] }

// FuncInfoOf returns the module's record for obj, or nil for functions
// declared outside the module (stdlib, test files).
func (m *Module) FuncInfoOf(obj *types.Func) *FuncInfo { return m.funcs[obj] }

// Funcs returns every module function in deterministic declaration order.
func (m *Module) Funcs() []*FuncInfo { return m.order }

// buildEdges walks fi's body once, collecting call edges and time uses.
// Function literals nested in the body are attributed to fi: the literal
// runs on behalf of the declaring function.
func (m *Module) buildEdges(fi *FuncInfo) {
	pkg := fi.Pkg
	seen := make(map[*types.Func]bool)
	addEdge := func(callee *types.Func) {
		if callee == nil || seen[callee] {
			return
		}
		if _, inModule := m.funcs[callee]; !inModule {
			return
		}
		seen[callee] = true
		fi.Callees = append(fi.Callees, callee)
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if fn, ok := pkg.useOf(n).(*types.Func); ok {
				// Package-level functions only: Time.After is a comparison.
				if p := fn.Pkg(); p != nil && p.Path() == "time" && wallclockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
					fi.TimeUses = append(fi.TimeUses, TimeUse{Pos: n.Pos(), Name: fn.Name()})
				}
			}
		case *ast.CallExpr:
			callee := calleeOf(pkg, n)
			if callee == nil {
				return true
			}
			sig, ok := callee.Type().(*types.Signature)
			if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
					for _, impl := range m.implementations(iface, callee.Name()) {
						addEdge(impl)
					}
					return true
				}
			}
			addEdge(callee)
		}
		return true
	})
}

// calleeOf resolves the called function object of call, if statically known.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.useOf(id).(*types.Func)
	return fn
}

// implementations returns every module method named method whose receiver
// type (value or pointer) implements iface — the class-hierarchy edges for
// one interface-method call.
func (m *Module) implementations(iface *types.Interface, method string) []*types.Func {
	key := implKey{iface: iface, method: method}
	if impls, ok := m.implCache[key]; ok {
		return impls
	}
	impls := []*types.Func{}
	for _, named := range m.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if _, inModule := m.funcs[fn]; inModule {
			impls = append(impls, fn)
		}
	}
	m.implCache[key] = impls
	return impls
}

// DeterministicPath returns the call chain from a //lint:deterministic root
// to f (root first, f last), or nil when no root reaches f. Roots reach
// themselves with a single-element chain.
func (m *Module) DeterministicPath(f *types.Func) []*types.Func {
	if !m.detDone {
		m.detDone = true
		m.detVia = make(map[*types.Func]reachEdge)
		var queue []*types.Func
		for _, fi := range m.order {
			if fi.Deterministic {
				m.detVia[fi.Obj] = reachEdge{root: fi.Obj}
				queue = append(queue, fi.Obj)
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			root := m.detVia[cur].root
			fi := m.funcs[cur]
			if fi == nil {
				continue
			}
			for _, callee := range fi.Callees {
				if _, seen := m.detVia[callee]; seen {
					continue
				}
				m.detVia[callee] = reachEdge{root: root, from: cur}
				queue = append(queue, callee)
			}
		}
	}
	if _, ok := m.detVia[f]; !ok {
		return nil
	}
	var rev []*types.Func
	for cur := f; cur != nil; cur = m.detVia[cur].from {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
