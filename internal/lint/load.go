package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded and type-checked package.
type Package struct {
	Path string // import path, e.g. "repro/internal/core"
	Name string // package name from the package clause
	Dir  string // absolute directory
	Root string // module root for relative file paths ("" = report absolute)

	Fset *token.FileSet
	// Files are the non-test files, fully type-checked.
	Files []*ast.File
	// TestFiles are _test.go files (internal and external packages alike).
	// They are type-checked in a second phase, after every package of the
	// module has loaded, into TestInfo.
	TestFiles []*ast.File

	Types *types.Package
	Info  *types.Info
	// TestInfo holds type information for the test units: the in-package
	// test files checked together with Files, and the external _test
	// package checked on its own. Pass.TypeOf consults it after Info.
	TestInfo *types.Info

	ignores        map[string][]*ignoreEntry // filename -> directives
	directiveDiags []Diagnostic
}

// ignoreEntry is one //lint:ignore directive. used flips when the directive
// actually suppresses a diagnostic, so the ignore-audit pass can flag stale
// suppressions that no longer cover anything.
type ignoreEntry struct {
	rule string
	line int
	pos  token.Position
	used bool
}

// AllFiles returns the type-checked files followed by the parse-only test
// files, for syntactic rules that apply to both.
func (p *Package) AllFiles() []*ast.File {
	return slices.Concat(p.Files, p.TestFiles)
}

func (p *Package) relFile(filename string) string {
	if p.Root == "" {
		return filename
	}
	if rel, err := filepath.Rel(p.Root, filename); err == nil {
		return filepath.ToSlash(rel)
	}
	return filename
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore(?:\s+(\S+))?(?:\s+(\S.*))?$`)

// collectDirectives scans a parsed file for //lint: comments. A well-formed
// ignore names a rule and gives a non-empty reason. Anything else starting
// with //lint: is itself reported so directives cannot silently rot.
func (p *Package) collectDirectives(f *ast.File) {
	if p.ignores == nil {
		p.ignores = make(map[string][]*ignoreEntry)
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//lint:") {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			bad := func(msg string) {
				p.directiveDiags = append(p.directiveDiags, Diagnostic{
					Rule:    "lint-directive",
					File:    p.relFile(pos.Filename),
					Line:    pos.Line,
					Col:     pos.Column,
					Message: msg,
				})
			}
			if !strings.HasPrefix(c.Text, "//lint:ignore") {
				bad("unknown directive: want //lint:ignore <rule> <reason>")
				continue
			}
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil || m[1] == "" || m[2] == "" {
				bad("malformed directive: want //lint:ignore <rule> <reason>")
				continue
			}
			p.ignores[pos.Filename] = append(p.ignores[pos.Filename],
				&ignoreEntry{rule: m[1], line: pos.Line, pos: pos})
		}
	}
}

// ignoreFiles returns the filenames that carry //lint:ignore directives in
// sorted order, so audit diagnostics come out deterministically.
func (p *Package) ignoreFiles() []string {
	files := make([]string, 0, len(p.ignores))
	for f := range p.ignores {
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}

// suppressed reports whether a directive for rule covers the given position:
// the directive must sit on the same line or the line directly above. The
// covering directive is marked used for the ignore-audit pass; a directive
// may legitimately suppress several diagnostics (e.g. two float comparisons
// on one line).
func (p *Package) suppressed(rule string, pos token.Position) bool {
	found := false
	for _, e := range p.ignores[pos.Filename] {
		if e.rule == rule && (e.line == pos.Line || e.line == pos.Line-1) {
			e.used = true
			found = true
		}
	}
	return found
}

// FindModuleRoot walks upward from dir until it finds a go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	return string(m[1]), nil
}

// loader type-checks module packages from source, on demand and in
// dependency order, so one *types.Func stands for a module function wherever
// it is used. Every other import is read from the export data the toolchain
// compiled for it.
type loader struct {
	root    string
	module  string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool
}

func newLoader(root, module string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:    root,
		module:  module,
		fset:    fset,
		std:     importer.ForCompiler(fset, "gc", openExport),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// stdExports maps each standard-library import path to its export file. The
// one `go list` it costs runs on the first import that needs it and never
// again in the process, however many loaders follow.
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	out, err := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", "std").Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w: %s", err, exit.Stderr)
		}
		return nil, fmt.Errorf("lint: go list -export std: %w", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
})

// openExport is the gc importer's lookup. There is no second importer to fall
// back on: a path the toolchain built no export data for is an error.
func openExport(path string) (io.ReadCloser, error) {
	exports, err := stdExports()
	if err != nil {
		return nil, err
	}
	file, ok := exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q: neither a package of the module nor of the standard library", path)
	}
	return os.Open(file)
}

// Import implements types.Importer over both module and stdlib packages.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module))), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in dir. Non-test files form the
// typed unit; _test.go files are parsed alongside for syntactic rules.
func (l *loader) load(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Dir: dir, Root: l.root, Fset: l.fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, name), err)
		}
		pkg.collectDirectives(f)
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
			pkg.Name = f.Name.Name
		}
	}
	if len(pkg.Files) > 0 {
		pkg.Info = newInfo()
		var typeErrs []error
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		//lint:ignore dropped-error type errors are accumulated via conf.Error and reported below
		pkg.Types, _ = conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("lint: type-check %s: %v", importPath, typeErrs[0])
		}
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// newInfo returns an empty types.Info with every map the analyzers read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// checkTests type-checks pkg's _test.go files into pkg.TestInfo. It runs as
// a second phase, after every package of the module has loaded, because
// external test packages (package foo_test) may import module packages that
// themselves import foo — a cycle the phase-one loader would reject.
//
// In-package test files are checked together with the non-test files as an
// augmented unit (test code sees unexported identifiers); the resulting
// *types.Package is discarded — pkg.Types stays the clean non-test unit that
// other packages import.
func (l *loader) checkTests(pkg *Package) error {
	var inPkg, ext []*ast.File
	for _, f := range pkg.TestFiles {
		if pkg.Name == "" || f.Name.Name == pkg.Name {
			inPkg = append(inPkg, f)
		} else {
			ext = append(ext, f)
		}
	}
	if len(inPkg)+len(ext) == 0 {
		return nil
	}
	pkg.TestInfo = newInfo()
	check := func(path string, files []*ast.File) error {
		var typeErrs []error
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		//lint:ignore dropped-error type errors are accumulated via conf.Error and reported below
		_, _ = conf.Check(path, l.fset, files, pkg.TestInfo)
		if len(typeErrs) > 0 {
			return fmt.Errorf("lint: type-check %s: %v", path, typeErrs[0])
		}
		return nil
	}
	if len(inPkg) > 0 {
		if err := check(pkg.Path+" [test]", slices.Concat(pkg.Files, inPkg)); err != nil {
			return err
		}
	}
	if len(ext) > 0 {
		return check(pkg.Path+"_test", ext)
	}
	return nil
}

// goFilesIn lists, in sorted order, the .go files of dir that a build for the
// host's GOOS/GOARCH compiles, test files included: go/build decides, so
// _GOOS/_GOARCH file suffixes and //go:build lines are both honoured and a
// kernel_amd64.go / "!amd64" pair declaring one name loads as one declaration.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, fmt.Errorf("lint: build constraints of %s: %w", filepath.Join(dir, e.Name()), err)
		}
		if match {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadModule loads every package of the module rooted at root, skipping
// testdata, hidden, and underscore-prefixed directories. Packages are
// returned sorted by import path.
func LoadModule(root string) ([]*Package, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return loadTree(root, module)
}

// LoadDir loads the tree rooted at dir as a module whose path is importPath,
// with no go.mod: the root package first, then every package below it.
// Used by the golden-file fixture tests; fixture packages may import the
// standard library and each other.
func LoadDir(dir, importPath string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return loadTree(abs, importPath)
}

// loadTree loads and type-checks, tests included, every package under root,
// whose import path is module.
func loadTree(root, module string) ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	l := newLoader(root, module)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	for _, pkg := range pkgs {
		if err := l.checkTests(pkg); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}
