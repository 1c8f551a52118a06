package lint

import (
	"go/ast"
	"go/types"
)

// Module is the whole-module view shared by the analyzers: a file → package
// index, so diagnostics reported across package boundaries find the right
// //lint:ignore scope.
type Module struct {
	byFile map[string]*Package
}

// NewModule indexes pkgs.
func NewModule(pkgs []*Package) *Module {
	m := &Module{byFile: make(map[string]*Package)}
	for _, pkg := range pkgs {
		for _, f := range pkg.AllFiles() {
			m.byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
	}
	return m
}

// ownerOf returns the package whose file set contains filename, or nil.
func (m *Module) ownerOf(filename string) *Package { return m.byFile[filename] }

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
