package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the tier-1 gate: it loads every package of the
// module and runs the full analyzer suite. Any violation anywhere in the
// tree fails `go test ./...`, so lint regressions cannot land.
func TestRepoIsLintClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	list := exec.Command("go", "list", "./...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	if want := len(strings.Fields(string(out))); len(pkgs) != want {
		t.Fatalf("loaded %d packages, go list ./... names %d; the module walker and the build disagree about what the module is", len(pkgs), want)
	}
	for _, d := range Check(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestLoadUnresolvableImport: an import that is neither the fixture's own
// package tree nor a standard-library package has no export data, and there
// is no other importer to fall back on — the load fails, naming the import,
// and no half-typed package reaches an analyzer.
func TestLoadUnresolvableImport(t *testing.T) {
	dir := t.TempDir()
	src := "package orphan\n\nimport \"example.com/nowhere\"\n\nvar _ = nowhere.X\n"
	if err := os.WriteFile(filepath.Join(dir, "orphan.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "orphan")
	if err == nil || pkg != nil {
		t.Fatalf("LoadDir = %v, %v; want no package and an error", pkg, err)
	}
	if !strings.Contains(err.Error(), `"example.com/nowhere"`) {
		t.Errorf("error does not name the import: %v", err)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, err := ByName(a.Name)
		if err != nil || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, err)
		}
	}
	if _, err := ByName("no-such-rule"); err == nil {
		t.Error("ByName should reject unknown rules")
	}
}

// TestLoadHonoursBuildConstraints: the buildtags fixture declares one name in
// a _amd64.go file and again behind //go:build !amd64 (test files likewise),
// so it type-checks only if the loader keeps exactly the files the host's
// build compiles; and its //lint:deterministic root calls the declaration
// that has no body on amd64, which no analyzer may hold against it.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	pkg, err := LoadDir("testdata/src/buildtags", "buildtags")
	if err != nil {
		t.Fatalf("loading a package with per-architecture files: %v", err)
	}
	if len(pkg.Files) != 2 || len(pkg.TestFiles) != 2 {
		t.Errorf("loaded %d files and %d test files, want hot.go + one kern file and hot_test.go + one kern test file",
			len(pkg.Files), len(pkg.TestFiles))
	}
	for _, d := range Check([]*Package{pkg}, All()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
