package lint

import (
	"go/ast"
	"go/types"
)

// Module is the whole-module view shared by the analyzers: an index of every
// function declaration with a body, through which goroutine-join reads a
// spawned callee declared in another file or package, and a file → package
// index so diagnostics reported across package boundaries find the right
// //lint:ignore scope. It covers non-test declarations only.
type Module struct {
	byFile map[string]*Package
	funcs  map[*types.Func]*FuncInfo
}

// FuncInfo is one function or method declaration in the module.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// NewModule indexes pkgs. pkgs must come from one loader invocation
// (LoadModule, or LoadDir for fixtures) so that cross-package object
// identities agree.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		byFile: make(map[string]*Package),
		funcs:  make(map[*types.Func]*FuncInfo),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.AllFiles() {
			m.byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					m.funcs[obj] = &FuncInfo{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return m
}

// ownerOf returns the package whose file set contains filename, or nil.
func (m *Module) ownerOf(filename string) *Package { return m.byFile[filename] }

// FuncInfoOf returns the module's record for obj, or nil for functions
// declared outside the module (stdlib, test files) or without a body.
func (m *Module) FuncInfoOf(obj *types.Func) *FuncInfo { return m.funcs[obj] }

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
